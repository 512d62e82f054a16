// Command benchjson converts `go test -bench` text output (stdin) into a
// JSON perf record: one entry per benchmark, folding the repeated lines
// `-count N` prints into the median, minimum and maximum ns/op and the
// sample count (custom metrics keep their median), plus derived speedup
// pairs for benchmarks that run a "serial" sub-benchmark next to a
// "parallel"/"batch" one. A speedup is marked resolved only when the
// serial and fast ranges do not overlap: with overlapping ranges the
// noise is as large as the effect.
//
// By default the record goes to stdout. With -next DIR it lands in
// DIR/BENCH_<n>.json where <n> is one past the highest existing index —
// so `make bench-json` appends to the perf trajectory instead of
// clobbering the previous run's file.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// benchmark is one benchmark folded over its samples (result lines).
// NsPerOp and Metrics are medians; Runs is the iteration count of the
// first sample.
type benchmark struct {
	Name    string             `json:"name"`
	Runs    int64              `json:"runs"`
	NsPerOp float64            `json:"ns_per_op"`
	MinNs   float64            `json:"min_ns_per_op"`
	MaxNs   float64            `json:"max_ns_per_op"`
	Samples int                `json:"samples"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

type speedup struct {
	Name     string  `json:"name"`
	SerialNs float64 `json:"serial_ns_per_op"`
	FastName string  `json:"fast_variant"`
	FastNs   float64 `json:"fast_ns_per_op"`
	Speedup  float64 `json:"speedup"`
	// Resolved reports that the serial and fast [min, max] ranges do
	// not overlap.
	Resolved bool `json:"resolved"`
}

type report struct {
	Context    map[string]string `json:"context,omitempty"`
	Benchmarks []benchmark       `json:"benchmarks"`
	Speedups   []speedup         `json:"speedups,omitempty"`
}

func main() {
	nextDir := flag.String("next", "", "write to DIR/BENCH_<n>.json, auto-incrementing n past the highest existing index (empty = stdout)")
	flag.Parse()
	rep := report{Context: map[string]string{}}
	var samples []benchmark
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		for _, key := range []string{"goos", "goarch", "cpu", "pkg"} {
			if v, ok := strings.CutPrefix(line, key+": "); ok {
				// Keep every pkg seen; the others are identical per run.
				if key == "pkg" && rep.Context["pkg"] != "" {
					v = rep.Context["pkg"] + " " + v
				}
				rep.Context[key] = v
			}
		}
		if b, ok := parseBenchLine(line); ok {
			samples = append(samples, b)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	rep.Benchmarks = fold(samples)
	rep.Speedups = deriveSpeedups(rep.Benchmarks)
	out := os.Stdout
	if *nextDir != "" {
		path, err := nextBenchPath(*nextDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
		fmt.Fprintln(os.Stderr, "benchjson: writing", path)
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

var benchFileRe = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// nextBenchPath returns dir/BENCH_<n>.json with n one past the highest
// index already present (starting at 0 in an empty dir).
func nextBenchPath(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	next := 0
	for _, e := range entries {
		m := benchFileRe.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		if n, err := strconv.Atoi(m[1]); err == nil && n+1 > next {
			next = n + 1
		}
	}
	return filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", next)), nil
}

// parseBenchLine parses one result line:
//
//	BenchmarkFoo/bar-8   5   118987738 ns/op   613.0 iters
func parseBenchLine(line string) (benchmark, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return benchmark{}, false
	}
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return benchmark{}, false
	}
	runs, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return benchmark{}, false
	}
	b := benchmark{Name: trimProcSuffix(f[0]), Runs: runs}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return benchmark{}, false
		}
		if f[i+1] == "ns/op" {
			b.NsPerOp = v
			continue
		}
		if b.Metrics == nil {
			b.Metrics = map[string]float64{}
		}
		b.Metrics[f[i+1]] = v
	}
	return b, b.NsPerOp > 0
}

// fold merges the samples of each benchmark, in order of first
// appearance, into one entry with the median, minimum and maximum ns/op
// and the median of each custom metric.
func fold(samples []benchmark) []benchmark {
	var out []benchmark
	groups := map[string][]benchmark{}
	for _, b := range samples {
		if groups[b.Name] == nil {
			out = append(out, benchmark{Name: b.Name, Runs: b.Runs})
		}
		groups[b.Name] = append(groups[b.Name], b)
	}
	for i := range out {
		g := groups[out[i].Name]
		ns := make([]float64, len(g))
		for k, b := range g {
			ns[k] = b.NsPerOp
		}
		out[i].NsPerOp = median(ns)
		out[i].MinNs, out[i].MaxNs = slices.Min(ns), slices.Max(ns)
		out[i].Samples = len(g)
		for key := range g[0].Metrics {
			var vs []float64
			for _, b := range g {
				if v, ok := b.Metrics[key]; ok {
					vs = append(vs, v)
				}
			}
			if out[i].Metrics == nil {
				out[i].Metrics = map[string]float64{}
			}
			out[i].Metrics[key] = median(vs)
		}
	}
	return out
}

// median returns the middle value of xs (the mean of the middle two for
// an even count); xs is sorted in place.
func median(xs []float64) float64 {
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// trimProcSuffix drops the trailing -N GOMAXPROCS marker.
func trimProcSuffix(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// deriveSpeedups pairs each <parent>/serial result with a sibling fast
// variant (parallel or batch) and records the ratio of medians,
// serial÷fast, resolved when the two ranges do not overlap.
func deriveSpeedups(bs []benchmark) []speedup {
	byName := map[string]benchmark{}
	for _, b := range bs {
		byName[b.Name] = b
	}
	var out []speedup
	for _, b := range bs {
		parent, ok := strings.CutSuffix(b.Name, "/serial")
		if !ok {
			continue
		}
		for _, variant := range []string{"parallel", "batch"} {
			if f, ok := byName[parent+"/"+variant]; ok && f.NsPerOp > 0 {
				out = append(out, speedup{
					Name:     parent,
					SerialNs: b.NsPerOp,
					FastName: variant,
					FastNs:   f.NsPerOp,
					Speedup:  b.NsPerOp / f.NsPerOp,
					Resolved: b.MinNs > f.MaxNs || f.MinNs > b.MaxNs,
				})
			}
		}
	}
	return out
}
