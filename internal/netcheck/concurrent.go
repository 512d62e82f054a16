package netcheck

import (
	"context"
	"fmt"
)

// ForEachFunc schedules fn(ctx, i) for every i in [0, n) and blocks
// until all started tasks finish, returning the first scheduling or
// task error (nil otherwise). It is the scheduling contract CheckWith
// delegates fan-out to; a server worker pool's ForEach method satisfies
// it, which lets batch signoff share one global concurrency bound with
// every other solver consumer in the process.
type ForEachFunc func(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error

// CheckWith is Check with the per-segment work fanned out through run —
// the serving-path entry point, where one signoff request may carry
// thousands of segments and the caller owns the concurrency budget.
// The output is deterministic and identical to Check's regardless of
// how run schedules tasks: findings are gathered in segment input order
// before the report's verdict sort, and when segments fail their checks
// the error reported is the lowest-index one — exactly the error the
// serial path stops at. Per-segment check failures never propagate
// through run (tasks return nil for them), so run only fails on
// cancellation; cancelling ctx abandons unstarted segments and returns
// the cancellation error.
func CheckWith(ctx context.Context, cfg Config, segments []*Segment, run ForEachFunc) (*Report, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	perNet := map[string]int{}
	for _, s := range segments {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		perNet[s.Net]++
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	findings := make([]Finding, len(segments))
	errs := make([]error, len(segments))
	if err := run(ctx, len(segments), func(tctx context.Context, i int) error {
		s := segments[i]
		f, err := checkSegment(tctx, cfg, s, perNet[s.Net])
		if err != nil {
			errs[i] = fmt.Errorf("netcheck: %s/%s: %w", s.Net, s.Name, err)
			return nil
		}
		findings[i] = f
		return nil
	}); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return assembleReport(cfg, findings), nil
}
