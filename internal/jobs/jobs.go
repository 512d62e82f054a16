// Package jobs is the durable asynchronous job subsystem behind the
// daemon's /v1/jobs routes: the paper's heavy analyses — large Monte
// Carlo lifetime runs, dense duty-cycle/J0 sweep grids, batched FDM
// coupling maps, full-chip coupled chipchecks — cannot fit a
// request/response deadline, so they run here as typed, checkpointed,
// cancellable background jobs instead of holding an HTTP connection
// (and a pool slot) hostage for minutes.
//
// The contract, piece by piece:
//
//   - Typed runners. A job is (type, params JSON); each type's runner
//     validates the params and splits the work into a fixed grid of
//     chunks whose boundaries depend only on the params — never on
//     worker count, scheduling, or restarts.
//
//   - Chunk purity. Chunk c's result blob is a pure function of
//     (params, c): Monte Carlo samples derive per-sample RNG substreams
//     from the absolute sample index (rules.MonteCarloRows), sweep
//     points are independent scalar root searches, coupling-map entries
//     are independent FDM solves, chipcheck tiles slice per-segment
//     verdicts out of a coupled field that is itself a deterministic
//     function of the params. Finalize merges blobs in chunk-index
//     order. Together these make the job's result bit-identical however
//     execution was sliced — including across a crash.
//
//   - Durable progress. With a journal directory configured, every job
//     owns one append-only journal file (see journal.go): a
//     snapcodec-framed header with the params and a SHA-256 params
//     hash, then one CRC-framed record per completed chunk blob or
//     quarantine decision, appended and fsynced at each checkpoint. A
//     restarted manager rescans the directory, verifies the hash, and
//     re-enqueues unfinished jobs with their completed chunks already in
//     hand: a crashed daemon resumes mid-job instead of recomputing, and
//     the resumed result is byte-identical to an uninterrupted run. A
//     journal whose header is corrupt is quarantined (renamed *.corrupt)
//     and counted — it never kills the boot; a torn tail costs only the
//     torn record.
//
//   - Two-lane weighted scheduling. Jobs land in an "interactive" or
//     "bulk" lane (bounded queues; overflow is an ErrQueueFull the
//     serving layer maps to 429 + Retry-After). A small worker set —
//     separate from the interactive solver pool — drains both lanes
//     with a weighted pick (InteractiveWeight interactive picks per
//     bulk pick, work-conserving in both directions), so a chip-scale
//     bulk job can never starve small interactive jobs, and job compute
//     never occupies the pool that /v1/rules latency depends on.
//
//   - Cancellation and deadlines ride the ctx plumbing the solvers
//     already honor: DELETE cancels the job's context, every job gets a
//     per-job deadline, and a graceful manager stop suspends running
//     jobs behind a final checkpoint.
//
//   - Self-healing execution. Each chunk runs under a supervisor:
//     per-attempt deadlines (the stuck-chunk watchdog), bounded retries
//     with deterministic exponential backoff for transient failures
//     (classified via internal/resilience), and quarantine for
//     poison/numeric ones — the chunk is recorded in a per-chunk failure
//     manifest and the job finishes completed_partial instead of
//     failing wholesale. Quarantine decisions are journaled the moment
//     they are made, so a crash-resume reproduces the same manifest
//     bit-identically. A failing journal (ENOSPC, dead disk) degrades
//     checkpointing to in-memory — counted, flagged in /metrics, and
//     periodically re-probed — instead of failing the job.
//
// Fault injection: faultinject.SiteJobsStep fires before every chunk
// attempt, faultinject.SiteJobsCheckpoint before every checkpoint,
// faultinject.SiteJobsChunkRetry when the supervisor grants a retry,
// and faultinject.SiteJobsJournalWrite inside every journal write —
// with "id:chunk" (or job-id) metadata, so chaos tests can fail, stall,
// or crash a job at an exact persisted state.
package jobs

import (
	"errors"
	"fmt"
	"time"

	"dsmtherm/internal/chipcheck"
	"dsmtherm/internal/lifetime"
)

// Lane identifies a scheduling lane.
type Lane string

const (
	// LaneInteractive is the high-priority lane: small jobs a user is
	// actively waiting on (a dashboard's sweep grid, a quick MC).
	LaneInteractive Lane = "interactive"
	// LaneBulk is the default low-priority lane: chip-scale work where
	// throughput matters and latency does not.
	LaneBulk Lane = "bulk"
)

// Status is a job's lifecycle state. Transitions:
//
//	queued → running → {done, completed_partial, failed, cancelled}
//	running → queued          (graceful stop or crash; resumes from journal)
//	queued → cancelled        (cancel before any worker picked it up)
type Status string

const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
	// StatusCompletedPartial is the terminal state of a job that ran
	// every chunk but had at least one quarantined by the chunk
	// supervisor (retries exhausted, or a poison/numeric failure). The
	// job's View and result carry the per-chunk failure manifest; the
	// completed chunks' work is preserved, not discarded.
	StatusCompletedPartial Status = "completed_partial"
)

// Terminal reports whether s is a final state.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled || s == StatusCompletedPartial
}

// Package sentinels. The serving layer classifies these with errors.Is
// into HTTP statuses; everything here is errors.Is-transparent through
// wrapping.
var (
	// ErrInvalid marks malformed or out-of-range job parameters
	// (HTTP 400).
	ErrInvalid = errors.New("jobs: invalid job")
	// ErrUnknownType marks a submit with an unregistered job type
	// (HTTP 400, wraps ErrInvalid via fmt at the call sites).
	ErrUnknownType = errors.New("jobs: unknown job type")
	// ErrNotFound marks an id no journal or live job matches (HTTP 404).
	ErrNotFound = errors.New("jobs: no such job")
	// ErrQueueFull rejects a submit whose lane is at its configured
	// depth — the job backlog is saturated and accepting more would only
	// grow an unbounded promise list (HTTP 429 + Retry-After).
	ErrQueueFull = errors.New("jobs: lane queue full")
	// ErrNotDone rejects a result fetch for a job that has not finished
	// (HTTP 409; poll GET /v1/jobs/{id} instead).
	ErrNotDone = errors.New("jobs: job not finished")
	// ErrTerminal rejects a cancel of a job already in a final state
	// (HTTP 409).
	ErrTerminal = errors.New("jobs: job already finished")
	// ErrStopped rejects submits while the manager is shutting down
	// (HTTP 503; the drain gate usually rejects first).
	ErrStopped = errors.New("jobs: manager stopped")
	// ErrFailed wraps the stored failure when fetching the result of a
	// failed job (HTTP 422).
	ErrFailed = errors.New("jobs: job failed")
)

// View is the externally visible state of one job — the GET /v1/jobs/{id}
// body and the submit acknowledgement.
type View struct {
	ID       string  `json:"id"`
	Type     string  `json:"type"`
	Lane     Lane    `json:"lane"`
	Status   Status  `json:"status"`
	Chunks   int     `json:"chunks"`
	Done     int     `json:"chunksDone"`
	Progress float64 `json:"progress"`
	// Resumed reports that some of this job's completed chunks were
	// restored from its journal by a manager restart rather than
	// computed in this process.
	Resumed bool `json:"resumed,omitempty"`
	// Error carries the failure message for StatusFailed jobs.
	Error string `json:"error,omitempty"`
	// Quarantined counts chunks the supervisor gave up on; Manifest
	// lists them (ascending chunk order). Non-empty only for
	// completed_partial jobs and jobs on their way there.
	Quarantined int            `json:"quarantined,omitempty"`
	Manifest    []ChunkFailure `json:"manifest,omitempty"`
	// DeadlineSec is the per-job compute budget in seconds.
	DeadlineSec float64   `json:"deadlineSec"`
	Submitted   time.Time `json:"submittedAt"`
}

// SubmitRequest is the POST /v1/jobs body. Exactly one of the per-type
// params fields must match Type.
type SubmitRequest struct {
	// Type selects the runner: "montecarlo", "sweep", "coupling",
	// "chipcheck" or "lifetime".
	Type string `json:"type"`
	// Lane selects the scheduling lane (default bulk).
	Lane Lane `json:"lane,omitempty"`
	// Deadline is the per-job compute budget as a Go duration string
	// ("30m"); empty selects the manager default, and values above the
	// configured maximum are clamped.
	Deadline string `json:"deadline,omitempty"`

	MonteCarlo *MonteCarloParams `json:"montecarlo,omitempty"`
	Sweep      *SweepParams      `json:"sweep,omitempty"`
	Coupling   *CouplingParams   `json:"coupling,omitempty"`
	Chipcheck  *chipcheck.Params `json:"chipcheck,omitempty"`
	Lifetime   *lifetime.Params  `json:"lifetime,omitempty"`
}

// lane validates and defaults the requested lane.
func (r *SubmitRequest) lane() (Lane, error) {
	switch r.Lane {
	case "":
		return LaneBulk, nil
	case LaneInteractive, LaneBulk:
		return r.Lane, nil
	default:
		return "", fmt.Errorf("%w: unknown lane %q (want %q or %q)", ErrInvalid, r.Lane, LaneInteractive, LaneBulk)
	}
}
