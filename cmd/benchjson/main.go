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
//
// With -compare OLD NEW it reads two records instead and prints, for
// each benchmark in both, the old and new median ns/op and their ratio,
// marked resolved when the two [min, max] ranges (each from repeated
// samples) are disjoint, then the benchmarks found in only one file. It
// exits 1 when a benchmark is resolved slower by more than gateBound
// (`make bench-gate` compares two test binaries run alternately this
// way). OLD
// and NEW are each a JSON record or raw `go test -bench` text (anything
// that does not start with '{'), folded as stdin is, so the outputs of
// two test binaries run alternately, back to back, compare directly.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// gateBound is the largest relative slowdown -compare lets pass when it
// is resolved: the same 0.25 bound the end-to-end benchmark applies.
const gateBound = 0.25

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
	cmp := flag.Bool("compare", false, "compare two records: benchjson -compare OLD NEW (each a JSON record or raw go test -bench text)")
	flag.Parse()
	if *cmp {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs OLD and NEW")
			os.Exit(2)
		}
		var recs [2]report
		for i, path := range flag.Args() {
			rep, err := readRecord(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchjson:", err)
				os.Exit(2)
			}
			recs[i] = rep
		}
		fmt.Printf("benchjson: %s -> %s\n", flag.Arg(0), flag.Arg(1))
		if compare(os.Stdout, recs[0], recs[1]) {
			os.Exit(1)
		}
		return
	}
	rep, err := parseText(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
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

// parseText folds `go test -bench` text into a record: the run context,
// one entry per benchmark and the derived speedups.
func parseText(r io.Reader) (report, error) {
	rep := report{Context: map[string]string{}}
	var samples []benchmark
	sc := bufio.NewScanner(r)
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
	rep.Benchmarks = fold(samples)
	rep.Speedups = deriveSpeedups(rep.Benchmarks)
	return rep, sc.Err()
}

// readRecord reads one -compare operand: a JSON record, or raw
// `go test -bench` text when the file does not start with '{'.
func readRecord(path string) (report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return report{}, err
	}
	if t := bytes.TrimSpace(data); len(t) == 0 || t[0] != '{' {
		return parseText(bytes.NewReader(data))
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return report{}, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
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
					Resolved: disjoint(b, f),
				})
			}
		}
	}
	return out
}

// disjoint reports that the [min, max] ranges of a and b do not overlap.
func disjoint(a, b benchmark) bool {
	return a.MinNs > b.MaxNs || b.MinNs > a.MaxNs
}

// compare writes the comparison of prev and cur to w and reports whether
// any benchmark present in both is resolved slower by more than
// gateBound.
func compare(w io.Writer, prev, cur report) (failed bool) {
	olds := map[string]benchmark{}
	for _, b := range prev.Benchmarks {
		olds[b.Name] = b
	}
	news := map[string]bool{}
	fmt.Fprintf(w, "%-48s %12s %12s %8s\n", "benchmark", "old ns/op", "new ns/op", "new/old")
	for _, n := range cur.Benchmarks {
		news[n.Name] = true
		o, ok := olds[n.Name]
		if !ok {
			continue
		}
		ratio := n.NsPerOp / o.NsPerOp
		verdict := ""
		switch {
		case o.Samples < 2 || n.Samples < 2:
			// Records before BENCH_10 hold one sample and no range.
			verdict = "no spread recorded"
		case disjoint(o, n):
			verdict = "resolved"
			if ratio > 1+gateBound {
				verdict = fmt.Sprintf("resolved, FAIL: slower by more than %g", gateBound)
				failed = true
			}
		}
		fmt.Fprintf(w, "%-48s %12.4g %12.4g %8.3f  %s\n", n.Name, o.NsPerOp, n.NsPerOp, ratio, verdict)
	}
	for _, o := range prev.Benchmarks {
		if !news[o.Name] {
			fmt.Fprintf(w, "only in old: %s\n", o.Name)
		}
	}
	for _, n := range cur.Benchmarks {
		if _, ok := olds[n.Name]; !ok {
			fmt.Fprintf(w, "only in new: %s\n", n.Name)
		}
	}
	return failed
}
