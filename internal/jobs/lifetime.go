package jobs

import (
	"context"
	"encoding/json"
	"fmt"

	"dsmtherm/internal/lifetime"
	"dsmtherm/internal/mathx"
)

// TypeLifetime is the chip-level statistical lifetime job type.
const TypeLifetime = "lifetime"

// lifetimeTask streams chip-TTF samples into mergeable quantile
// sketches. Its chunk blobs are not gob: each is the canonical
// mathx.QuantileSketch encoding of the chunk's sample range, so
// Finalize is pure sketch merging — and because sketch merge is counter
// addition, the merged state (and thus the result document) is
// byte-identical whether the chunks ran serially, in parallel, or
// across a crash-resume boundary.
type lifetimeTask struct {
	model *lifetime.Model
}

func newLifetimeTask(params json.RawMessage) (Task, error) {
	var p lifetime.Params
	if err := decodeParams(params, &p); err != nil {
		return nil, err
	}
	// Compile validates everything eagerly so submit rejects a bad
	// census with a 400 instead of failing the job at its first chunk.
	m, err := lifetime.Compile(p)
	if err != nil {
		return nil, err
	}
	return &lifetimeTask{model: m}, nil
}

// Chunks slices the samples by lifetime.Model.ChunkSamples, which sizes a
// chunk by the census's work so small censuses do not checkpoint more
// often than they sample, and never below the former 8192-sample grid so
// large censuses do not checkpoint more often than they did on it. A
// retuned size only invalidates in-flight journals (chunk-count mismatch
// → progress reset), never results, because ChunkSamples' power-of-two
// rule gives any other size a different count for a multi-chunk job.
func (t *lifetimeTask) Chunks() int {
	c := t.model.ChunkSamples()
	return (t.model.Samples + c - 1) / c
}

// Run aggregates samples [c·n, min((c+1)·n, Samples)) into a fresh
// sketch, n = ChunkSamples(). Each sample's RNG substream is keyed on its
// absolute index (lifetime.Model.SampleRange), so the blob depends only
// on (params, c).
func (t *lifetimeTask) Run(ctx context.Context, chunk int) ([]byte, error) {
	n := t.model.ChunkSamples()
	lo := chunk * n
	hi := min(lo+n, t.model.Samples)
	sk := lifetime.NewSketch()
	if err := t.model.SampleRange(sk, lo, hi); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return sk.MarshalBinary()
}

func (t *lifetimeTask) Finalize(ctx context.Context, chunks [][]byte) (json.RawMessage, error) {
	total := lifetime.NewSketch()
	for c, blob := range chunks {
		sk, err := mathx.DecodeQuantileSketch(blob)
		if err != nil {
			return nil, fmt.Errorf("chunk %d: %w", c, err)
		}
		if err := total.Merge(sk); err != nil {
			return nil, fmt.Errorf("chunk %d: %w", c, err)
		}
	}
	rep, err := t.model.BuildReport(total)
	if err != nil {
		return nil, err
	}
	return json.Marshal(rep)
}
