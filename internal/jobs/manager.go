package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"log"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dsmtherm/internal/faultinject"
	"dsmtherm/internal/mathx"
	"dsmtherm/internal/resilience"
	"dsmtherm/internal/snapcodec"
)

// Config tunes a Manager. The zero value is usable; Defaults() shows
// the resolved numbers.
type Config struct {
	// Dir is the journal directory. Empty disables durability: jobs
	// still run, cancel and report, but progress dies with the process.
	Dir string
	// Workers is the job-lane worker count (default 1). These are the
	// only goroutines that execute job chunks — a deliberately small,
	// low-priority set separate from the interactive solver pool, so
	// chip-scale jobs never contend with /v1/rules latency.
	Workers int
	// QueueDepth bounds each lane's backlog (default 16); a submit past
	// it is ErrQueueFull (HTTP 429 + Retry-After).
	QueueDepth int
	// InteractiveWeight is the scheduler ratio: this many interactive
	// picks for every bulk pick, work-conserving both ways (default 3).
	InteractiveWeight int
	// DefaultDeadline / MaxDeadline bound one run attempt's compute
	// budget (defaults 15m / 2h). Client-requested deadlines are
	// clamped to MaxDeadline.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// MaxJobs bounds the retained job table (default 1024). Inserting
	// past it evicts the oldest terminal job (and its journal); with
	// nothing evictable the submit is ErrQueueFull.
	MaxJobs int

	// ChunkRetries is the per-chunk retry cap for transiently failing
	// chunks (default 3; negative disables retries). A chunk that fails
	// past its retries — or fails with a poison/numeric error — is
	// quarantined into the failure manifest instead of failing the job.
	ChunkRetries int
	// ChunkDeadline bounds one chunk *attempt* (0 disables). It is the
	// stuck-chunk watchdog: an attempt that exceeds it is treated as a
	// transient failure (retried with backoff, then quarantined), while
	// the job-level deadline keeps bounding the whole run.
	ChunkDeadline time.Duration
	// RetryBudget caps total retries across all of one job's chunks
	// (default 64; negative means none), so a systematic fault cannot
	// multiply into chunks×retries wasted compute.
	RetryBudget int
	// RetryBackoffBase / RetryBackoffCap shape the exponential backoff
	// between chunk retries (defaults 10ms / 2s).
	RetryBackoffBase time.Duration
	RetryBackoffCap  time.Duration
	// JournalReprobe is how often a degraded manager re-probes the
	// journal with a real write (default 10s). Between probes,
	// checkpoints are in-memory only.
	JournalReprobe time.Duration
	// DegradedOK accepts submits whose initial journal write fails
	// (ENOSPC, dead disk): the job runs in-memory — not crash-durable
	// until a later probe succeeds — instead of being rejected.
	DegradedOK bool
}

// Defaults returns cfg with every unset knob resolved.
func (cfg Config) Defaults() Config {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.InteractiveWeight <= 0 {
		cfg.InteractiveWeight = 3
	}
	if cfg.DefaultDeadline <= 0 {
		cfg.DefaultDeadline = 15 * time.Minute
	}
	if cfg.MaxDeadline <= 0 {
		cfg.MaxDeadline = 2 * time.Hour
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 1024
	}
	if cfg.ChunkRetries == 0 {
		cfg.ChunkRetries = 3
	}
	if cfg.RetryBudget == 0 {
		cfg.RetryBudget = 64
	}
	if cfg.RetryBackoffBase <= 0 {
		cfg.RetryBackoffBase = 10 * time.Millisecond
	}
	if cfg.RetryBackoffCap <= 0 {
		cfg.RetryBackoffCap = 2 * time.Second
	}
	if cfg.JournalReprobe <= 0 {
		cfg.JournalReprobe = 10 * time.Second
	}
	return cfg
}

// chunkRetries / retryBudget resolve the negative-disables convention.
func (cfg Config) chunkRetries() int { return max(0, cfg.ChunkRetries) }

func (cfg Config) retryBudget() int { return max(0, cfg.RetryBudget) }

// Stop/crash/cancel causes. Classification happens via context.Cause:
// the same context.Canceled surfaces from a chunk whether the job was
// cancelled, the manager stopped gracefully, or the process is going
// down hard, and only the cause tells a worker whether to persist a
// terminal state, write a suspend checkpoint, or touch nothing.
var (
	errCancelled = errors.New("jobs: cancelled by request")
	errStopping  = errors.New("jobs: manager stopping")
	errCrashing  = errors.New("jobs: crash (no checkpoint)")
	errDeadline  = errors.New("jobs: deadline exceeded")
	// errChunkStuck is the stuck-chunk watchdog's cause: one attempt
	// exceeded ChunkDeadline. Unlike the job-level causes above it is a
	// per-attempt event — the supervisor classifies it transient and
	// retries rather than unwinding the job.
	errChunkStuck = errors.New("jobs: chunk attempt deadline (stuck-chunk watchdog)")
)

// job is the in-memory state of one job. The mutex guarding it is the
// Manager's; blobs in data are immutable once set.
type job struct {
	id        string
	typ       string
	lane      Lane
	params    []byte
	deadline  time.Duration
	submitted time.Time
	task      Task // nil once the job is terminal

	status  Status
	chunks  int
	bitmap  []uint64
	data    [][]byte
	result  json.RawMessage
	errMsg  string
	resumed bool
	// failed is the quarantine manifest: chunks the supervisor gave up
	// on, ascending chunk order (the chunk loop runs in index order).
	// Journaled the moment each entry is appended, so resume reproduces
	// quarantine decisions bit-identically.
	failed []ChunkFailure
	// The journal's durable extent: logLen bytes of the job's log are
	// known to be on disk (0: the next write rewrites the whole file),
	// holding the chunks set in logged and the first loggedFailed
	// manifest entries. Only the goroutine writing the job's journal
	// changes them, under the Manager's mutex.
	logLen       int64
	logged       []uint64
	loggedFailed int
	// retry is the per-job retry budget, refreshed at the start of every
	// run attempt (a resume gets a fresh budget — the journal records
	// outcomes, not spent retries).
	retry *resilience.Budget
	// cancel is non-nil while the job runs; Cancel uses it to stop the
	// in-flight chunk. cancelRequested covers the window between the
	// dequeue (status → running) and runJob installing cancel.
	cancel          context.CancelCauseFunc
	cancelRequested bool
	// closing marks a queued job whose cancellation is being journaled:
	// it still shows as queued, but no worker may pick it up and a
	// second Cancel has nothing left to do.
	closing bool
	// done closes on entering a terminal state, once that state is
	// durable.
	done chan struct{}
}

func (j *job) view() View {
	done := bitCount(j.bitmap, j.chunks)
	v := View{
		ID: j.id, Type: j.typ, Lane: j.lane, Status: j.status,
		Chunks: j.chunks, Done: done,
		Resumed:     j.resumed,
		Error:       j.errMsg,
		DeadlineSec: j.deadline.Seconds(),
		Submitted:   j.submitted,
		Quarantined: len(j.failed),
	}
	if len(j.failed) > 0 {
		v.Manifest = append([]ChunkFailure(nil), j.failed...)
	}
	if j.chunks > 0 {
		v.Progress = float64(done) / float64(j.chunks)
	}
	return v
}

// Stats is the job subsystem's metrics snapshot (a section of the
// server's /metrics document).
type Stats struct {
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
	// CompletedPartial counts retained jobs that finished with
	// quarantined chunks.
	CompletedPartial int `json:"completedPartial"`

	Submitted        uint64 `json:"submitted"`
	ChunksRun        uint64 `json:"chunksRun"`
	Checkpoints      uint64 `json:"checkpoints"`
	CheckpointSkips  uint64 `json:"checkpointSkips"`
	CheckpointErrors uint64 `json:"checkpointErrors"`
	Evicted          uint64 `json:"evicted"`
	// JournalBytes counts the bytes handed to journal writes: headers,
	// appended chunk and quarantine records, terminal rewrites.
	JournalBytes uint64 `json:"journalBytes"`
	// ResumedBoot / CorruptBoot count what the boot-time journal scan
	// found: jobs re-enqueued with prior progress, and journals
	// quarantined as *.corrupt. TornRecoveredBoot counts journals whose
	// log ended in a torn or corrupt record: the job kept the records
	// before it and the tail was cut off.
	ResumedBoot       uint64 `json:"resumedBoot"`
	CorruptBoot       uint64 `json:"corruptBoot"`
	TornRecoveredBoot uint64 `json:"tornRecoveredBoot"`

	// Chunk supervision: retries granted, chunks quarantined into
	// failure manifests, and jobs that went completed_partial.
	ChunkRetries      uint64 `json:"chunkRetries"`
	ChunksQuarantined uint64 `json:"chunksQuarantined"`
	PartialJobs       uint64 `json:"partialJobs"`

	// Journal degradation: JournalDegraded is the live flag (true while
	// checkpointing is in-memory only); DegradedEvents counts healthy →
	// degraded transitions, DegradedSkips checkpoints absorbed in-memory
	// while degraded, JournalReprobes write probes attempted while
	// degraded, JournalRecoveries degraded → healthy transitions.
	JournalDegraded   bool   `json:"journalDegraded"`
	DegradedEvents    uint64 `json:"degradedEvents"`
	DegradedSkips     uint64 `json:"degradedSkips"`
	JournalReprobes   uint64 `json:"journalReprobes"`
	JournalRecoveries uint64 `json:"journalRecoveries"`
}

// Manager owns the job table, the two lane queues, and the worker set.
type Manager struct {
	cfg Config

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*job
	queues   map[Lane][]*job
	picks    int
	stopping bool

	rootCtx    context.Context
	rootCancel context.CancelCauseFunc
	wg         sync.WaitGroup

	submitted        atomic.Uint64
	chunksRun        atomic.Uint64
	checkpoints      atomic.Uint64
	checkpointSkips  atomic.Uint64
	checkpointErrors atomic.Uint64
	journalBytes     atomic.Uint64
	evicted          atomic.Uint64
	resumedBoot      uint64
	corruptBoot      uint64
	tornRecovered    uint64

	chunkRetries      atomic.Uint64
	chunksQuarantined atomic.Uint64
	partialJobs       atomic.Uint64

	// Journal degradation state: degraded flips on at the first failed
	// journal write and off at the first successful re-probe; lastProbe
	// (unix nanos) rate-limits probing to cfg.JournalReprobe.
	degraded          atomic.Bool
	degradedEvents    atomic.Uint64
	degradedSkips     atomic.Uint64
	journalReprobes   atomic.Uint64
	journalRecoveries atomic.Uint64
	lastProbe         atomic.Int64
}

// New builds a Manager, replays the journal directory, re-enqueues
// every unfinished job, and starts the workers. The scan is synchronous
// — when New returns, GET /v1/jobs/{id} already sees every journaled
// job — but boot never fails on journal contents: corrupt files are
// quarantined and counted, an unfinished job whose params a newer
// binary rejects is quarantined too, and a chunk-grid retune resets an
// unfinished job's progress rather than resuming into the wrong
// boundaries. A finished job is restored from its outcome alone: its
// params are not re-validated and no task is built for it.
func New(cfg Config) (*Manager, error) {
	cfg = cfg.Defaults()
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("jobs: journal dir: %w", err)
		}
	}
	m := &Manager{
		cfg:    cfg,
		jobs:   make(map[string]*job),
		queues: map[Lane][]*job{LaneInteractive: nil, LaneBulk: nil},
	}
	m.cond = sync.NewCond(&m.mu)
	m.rootCtx, m.rootCancel = context.WithCancelCause(context.Background())

	if cfg.Dir != "" {
		scan, err := scanJournals(cfg.Dir)
		if err != nil {
			return nil, err
		}
		m.corruptBoot = uint64(scan.corrupted)
		m.tornRecovered = uint64(scan.tornTails)
		for i := range scan.files {
			m.restore(&scan.files[i])
		}
	}

	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// restore turns one decoded journal into a live job. Called from New
// only (no lock needed yet).
func (m *Manager) restore(jf *journalFile) {
	j := &job{
		id: jf.ID, typ: jf.Type, lane: jf.Lane, params: jf.Params,
		deadline: jf.Deadline, submitted: jf.Submitted,
		status: jf.Status, chunks: jf.Chunks, bitmap: jf.Bitmap,
		data: jf.ChunkData, result: jf.Result, errMsg: jf.ErrMsg,
		logLen: int64(jf.Valid), logged: append([]uint64(nil), jf.Bitmap...),
		done: make(chan struct{}),
	}
	if len(jf.Manifest) > 0 {
		// decodeJournal already validated the manifest against the
		// bitmap; re-decoding cannot fail here.
		j.failed, _ = DecodeManifest(jf.Manifest, jf.Chunks)
	}
	j.loggedFailed = len(j.failed)
	if j.status.Terminal() {
		// A finished job answers from its outcome alone (see terminal),
		// which the header's params checksum already guards, so it needs
		// no task: its params are not re-validated, and neither a grid
		// retune nor a tightened limit can cost it its result.
		close(j.done)
		m.jobs[j.id] = j
		return
	}
	task, err := newTask(jf.Type, jf.Params)
	if err != nil {
		// The params no longer validate (a newer binary tightened a
		// limit, or a type was retired). Quarantine like corruption: the
		// work cannot be re-derived, so it must not pretend to resume.
		m.corruptBoot++
		_ = os.Rename(journalPath(m.cfg.Dir, jf.ID), journalPath(m.cfg.Dir, jf.ID)+".corrupt")
		log.Printf("jobs: journal %s: params no longer valid: %v (quarantined)", jf.ID, err)
		return
	}
	j.task = task
	if want := task.Chunks(); want != jf.Chunks {
		// The chunk grid changed between binaries (a retuned chunk size
		// shows here only as a different count). Progress is sliced on
		// the old boundaries, so it cannot be reused — but the params
		// still validate, so restart the job from zero rather than
		// losing it. Quarantine decisions are sliced on the same
		// boundaries, so they reset too, and the next write rewrites the
		// journal on the new grid.
		j.chunks = want
		j.bitmap = make([]uint64, bitmapWords(want))
		j.data = make([][]byte, want)
		j.failed = nil
		j.logLen, j.logged, j.loggedFailed = 0, nil, 0
	}
	// queued or running at the time of the crash/stop: both resume as
	// queued. Completed chunks — and quarantine decisions — ride along;
	// that is the resume.
	j.status = StatusQueued
	j.resumed = bitCount(j.bitmap, j.chunks) > 0 || len(j.failed) > 0
	if j.resumed {
		m.resumedBoot++
	}
	m.queues[j.lane] = append(m.queues[j.lane], j)
	m.jobs[j.id] = j
}

// newID returns a fresh job id ("j" + 16 hex chars).
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("jobs: rand: %v", err)) // crypto/rand never fails on supported platforms
	}
	return "j" + hex.EncodeToString(b[:])
}

// Submit validates the request, journals the new job, enqueues it and
// returns its initial view. Everything expensive is deferred to the
// workers; Submit itself only validates and writes one small file.
func (m *Manager) Submit(req SubmitRequest) (View, error) {
	lane, err := req.lane()
	if err != nil {
		return View{}, err
	}
	deadline := m.cfg.DefaultDeadline
	if req.Deadline != "" {
		d, err := time.ParseDuration(req.Deadline)
		if err != nil || d <= 0 {
			return View{}, fmt.Errorf("%w: deadline %q", ErrInvalid, req.Deadline)
		}
		deadline = min(d, m.cfg.MaxDeadline)
	}
	params, err := canonicalParams(req)
	if err != nil {
		return View{}, err
	}
	task, err := newTask(req.Type, params)
	if err != nil {
		return View{}, err
	}
	chunks := task.Chunks()
	j := &job{
		id: newID(), typ: req.Type, lane: lane, params: params,
		deadline: deadline, submitted: time.Now().UTC(), task: task,
		status: StatusQueued, chunks: chunks,
		bitmap: make([]uint64, bitmapWords(chunks)),
		data:   make([][]byte, chunks),
		done:   make(chan struct{}),
	}
	// Journal before the job becomes visible: once a client holds the
	// id, the job must survive a crash. With DegradedOK the job is
	// accepted anyway — it runs in-memory, durable again once a later
	// re-probe succeeds.
	if err := m.writeDurable(j, nil); err != nil {
		if !m.cfg.DegradedOK {
			return View{}, fmt.Errorf("jobs: journal submit: %w", err)
		}
		log.Printf("jobs: submit %s: journal degraded, accepting in-memory: %v", j.id, err)
	}
	m.mu.Lock()
	if m.stopping {
		m.mu.Unlock()
		m.removeJournal(j.id)
		return View{}, ErrStopped
	}
	if len(m.queues[lane]) >= m.cfg.QueueDepth {
		m.mu.Unlock()
		m.removeJournal(j.id)
		return View{}, fmt.Errorf("%w: %s lane at depth %d", ErrQueueFull, lane, m.cfg.QueueDepth)
	}
	if len(m.jobs) >= m.cfg.MaxJobs && !m.evictLocked() {
		m.mu.Unlock()
		m.removeJournal(j.id)
		return View{}, fmt.Errorf("%w: %d jobs retained and none evictable", ErrQueueFull, m.cfg.MaxJobs)
	}
	m.jobs[j.id] = j
	m.queues[lane] = append(m.queues[lane], j)
	v := j.view()
	m.cond.Signal()
	m.mu.Unlock()
	m.submitted.Add(1)
	return v, nil
}

// canonicalParams extracts the one params document matching req.Type
// and re-marshals it — the canonical bytes that are journaled, hashed,
// and fed to newTask, identical across submit and every resume.
func canonicalParams(req SubmitRequest) ([]byte, error) {
	set := 0
	var v any
	for _, f := range []struct {
		typ string
		ptr any
		nil bool
	}{
		{TypeMonteCarlo, req.MonteCarlo, req.MonteCarlo == nil},
		{TypeSweep, req.Sweep, req.Sweep == nil},
		{TypeCoupling, req.Coupling, req.Coupling == nil},
		{TypeChipcheck, req.Chipcheck, req.Chipcheck == nil},
		{TypeLifetime, req.Lifetime, req.Lifetime == nil},
	} {
		if f.nil {
			continue
		}
		set++
		if f.typ == req.Type {
			v = f.ptr
		}
	}
	if set != 1 || v == nil {
		return nil, fmt.Errorf("%w: exactly the %q params field must be set", ErrInvalid, req.Type)
	}
	params, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("%w: params: %v", ErrInvalid, err)
	}
	return params, nil
}

// evictLocked drops the oldest terminal job (and its journal) to make
// room; reports whether anything was evictable.
func (m *Manager) evictLocked() bool {
	var victim *job
	for _, j := range m.jobs {
		if !j.status.Terminal() {
			continue
		}
		if victim == nil || j.submitted.Before(victim.submitted) ||
			(j.submitted.Equal(victim.submitted) && j.id < victim.id) {
			victim = j
		}
	}
	if victim == nil {
		return false
	}
	delete(m.jobs, victim.id)
	m.evicted.Add(1)
	m.removeJournal(victim.id)
	return true
}

// Get returns the current view of one job.
func (m *Manager) Get(id string) (View, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return View{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return j.view(), nil
}

// Result returns a finished job's result document.
func (m *Manager) Result(id string) (json.RawMessage, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	switch j.status {
	case StatusDone:
		return j.result, nil
	case StatusCompletedPartial:
		// The partial result document: counts plus the failure manifest
		// (built in finalize; chunk merge needs every chunk, so partial
		// jobs report what completed and what was quarantined).
		return j.result, nil
	case StatusFailed:
		return nil, fmt.Errorf("%w: %s", ErrFailed, j.errMsg)
	case StatusCancelled:
		return nil, fmt.Errorf("%w: cancelled", ErrFailed)
	default:
		return nil, fmt.Errorf("%w: %s is %s", ErrNotDone, id, j.status)
	}
}

// Done returns a channel that closes when the job reaches a terminal
// state (already closed for terminal jobs).
func (m *Manager) Done(id string) (<-chan struct{}, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return j.done, nil
}

// Cancel stops a job: a queued job goes terminal immediately, a running
// one has its context cancelled and goes terminal when the in-flight
// chunk unwinds. Cancelling a terminal job is ErrTerminal.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	switch {
	case j.status.Terminal():
		m.mu.Unlock()
		return fmt.Errorf("%w: %s is %s", ErrTerminal, id, j.status)
	case j.status == StatusRunning:
		j.cancelRequested = true
		cancel := j.cancel
		m.mu.Unlock()
		if cancel != nil {
			cancel(errCancelled)
		}
		return nil
	case j.closing:
		m.mu.Unlock()
		return nil
	default: // queued: lazy queue removal — dequeue skips closing jobs
		j.closing = true
		m.mu.Unlock()
		m.terminal(j, StatusCancelled, "")
		return nil
	}
}

// Stats returns the metrics snapshot.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	st := Stats{}
	for _, j := range m.jobs {
		switch j.status {
		case StatusQueued:
			st.Queued++
		case StatusRunning:
			st.Running++
		case StatusDone:
			st.Done++
		case StatusFailed:
			st.Failed++
		case StatusCancelled:
			st.Cancelled++
		case StatusCompletedPartial:
			st.CompletedPartial++
		}
	}
	m.mu.Unlock()
	st.Submitted = m.submitted.Load()
	st.ChunksRun = m.chunksRun.Load()
	st.Checkpoints = m.checkpoints.Load()
	st.CheckpointSkips = m.checkpointSkips.Load()
	st.CheckpointErrors = m.checkpointErrors.Load()
	st.JournalBytes = m.journalBytes.Load()
	st.Evicted = m.evicted.Load()
	st.ResumedBoot = m.resumedBoot
	st.CorruptBoot = m.corruptBoot
	st.TornRecoveredBoot = m.tornRecovered
	st.ChunkRetries = m.chunkRetries.Load()
	st.ChunksQuarantined = m.chunksQuarantined.Load()
	st.PartialJobs = m.partialJobs.Load()
	st.JournalDegraded = m.degraded.Load()
	st.DegradedEvents = m.degradedEvents.Load()
	st.DegradedSkips = m.degradedSkips.Load()
	st.JournalReprobes = m.journalReprobes.Load()
	st.JournalRecoveries = m.journalRecoveries.Load()
	return st
}

// Stop shuts the manager down gracefully: no new submits, in-flight
// jobs stop at their next chunk boundary behind a final suspend
// checkpoint (status queued in the journal, full bitmap), workers
// drain. A later New on the same directory resumes the suspended jobs.
func (m *Manager) Stop() { m.shutdown(errStopping) }

// Kill is the crash path (tests use it to simulate power loss without
// os.Exit): workers abandon in-flight jobs WITHOUT any further journal
// write, so disk holds exactly the last completed checkpoint.
func (m *Manager) Kill() { m.shutdown(errCrashing) }

func (m *Manager) shutdown(cause error) {
	m.mu.Lock()
	if !m.stopping {
		m.stopping = true
		m.rootCancel(cause)
		m.cond.Broadcast()
	}
	m.mu.Unlock()
	m.wg.Wait()
}

// worker is one job-lane goroutine: dequeue, run, repeat until stop.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		j := m.dequeue()
		if j == nil {
			return
		}
		m.runJob(j)
	}
}

// dequeue blocks for the next runnable job (nil on shutdown), applying
// the weighted lane pick: InteractiveWeight interactive picks per bulk
// pick, falling through to the other lane when the preferred one is
// empty.
func (m *Manager) dequeue() *job {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if m.stopping {
			return nil
		}
		if j := m.pickLocked(); j != nil {
			j.status = StatusRunning
			return j
		}
		m.cond.Wait()
	}
}

func (m *Manager) pickLocked() *job {
	w := m.cfg.InteractiveWeight
	order := [2]Lane{LaneInteractive, LaneBulk}
	if m.picks%(w+1) == w {
		order[0], order[1] = LaneBulk, LaneInteractive
	}
	for _, lane := range order {
		q := m.queues[lane]
		for len(q) > 0 {
			j := q[0]
			q = q[1:]
			m.queues[lane] = q
			if j.status != StatusQueued || j.closing { // cancelled while queued
				continue
			}
			m.picks++
			return j
		}
	}
	return nil
}

// runJob executes one job to a chunk-loop outcome and classifies it.
func (m *Manager) runJob(j *job) {
	runCtx, cancel := context.WithCancelCause(m.rootCtx)
	m.mu.Lock()
	j.cancel = cancel
	requested := j.cancelRequested
	m.mu.Unlock()
	if requested { // Cancel raced the dequeue; honor it before any chunk runs
		cancel(errCancelled)
	}
	ctx, cancelDl := context.WithDeadlineCause(runCtx, time.Now().Add(j.deadline), errDeadline)
	j.retry = resilience.NewBudget(m.cfg.retryBudget())
	err := m.runChunks(ctx, j)
	cancelDl()
	m.mu.Lock()
	j.cancel = nil
	m.mu.Unlock()
	cancel(nil)

	cause := context.Cause(ctx)
	switch {
	case err == nil:
		m.finalize(j)
	case errors.Is(cause, errCrashing):
		// Simulated power loss: touch nothing — disk keeps the last
		// completed checkpoint, memory state dies with the process.
	case errors.Is(cause, errStopping):
		// Graceful stop: suspend behind a final checkpoint so the next
		// boot resumes exactly here.
		m.mu.Lock()
		j.status = StatusQueued
		m.mu.Unlock()
		m.checkpoint(context.Background(), j)
	case errors.Is(cause, errCancelled):
		m.terminal(j, StatusCancelled, "")
	case errors.Is(cause, errDeadline), errors.Is(err, context.DeadlineExceeded):
		m.terminal(j, StatusFailed, fmt.Sprintf("deadline %s exceeded", j.deadline))
	default:
		m.terminal(j, StatusFailed, err.Error())
	}
}

// runChunks executes every incomplete chunk in index order under the
// chunk supervisor, checkpointing after every chunk. Chunk
// results are pure functions of (params, index), so "in index order" is
// an implementation convenience, not a correctness requirement — the
// journal would be just as valid with holes. Chunks quarantined by the
// supervisor (this run or a resumed one) are skipped, their quarantine
// journaled the moment it is decided.
func (m *Manager) runChunks(ctx context.Context, j *job) error {
	quarantined := make(map[int]bool, len(j.failed))
	m.mu.Lock()
	for i := range j.failed {
		quarantined[j.failed[i].Chunk] = true
	}
	m.mu.Unlock()
	for c := 0; c < j.chunks; c++ {
		if bitGet(j.bitmap, c) || quarantined[c] { // resumed: already journaled
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		blob, fail, err := m.superviseChunk(ctx, j, c)
		switch {
		case err != nil:
			return err
		case fail != nil:
			// Quarantine: record the decision and journal it before any
			// further chunk runs, so a crash-resume replays the same
			// manifest instead of re-running the poisoned chunk.
			m.mu.Lock()
			j.failed = append(j.failed, *fail)
			m.mu.Unlock()
			m.chunksQuarantined.Add(1)
			log.Printf("jobs: %s chunk %d quarantined after %d attempts: %s", j.id, c, fail.Attempts, fail.Error)
			m.checkpoint(m.metaCtx(ctx, j.id, c), j)
		default:
			m.mu.Lock()
			bitSet(j.bitmap, c)
			j.data[c] = blob
			m.mu.Unlock()
			m.chunksRun.Add(1)
			m.checkpoint(m.metaCtx(ctx, j.id, c), j)
		}
	}
	return nil
}

// metaCtx attaches "id:chunk" fault-injection metadata when hooks are
// registered (the no-hooks fast path stays allocation-free).
func (m *Manager) metaCtx(ctx context.Context, id string, c int) context.Context {
	if faultinject.Active() {
		return faultinject.WithMeta(ctx, fmt.Sprintf("%s:%d", id, c))
	}
	return ctx
}

// backoffSeed derives the deterministic jitter stream for one chunk's
// retries: stable across resumes (id and chunk only), distinct across
// chunks and jobs.
func backoffSeed(id string, c int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(c >> (8 * i))
	}
	h.Write(b[:])
	return h.Sum64()
}

// superviseChunk runs one chunk under the supervisor: per-attempt
// deadline (the stuck-chunk watchdog), bounded retries with backoff for
// transient failures, quarantine for poison/numeric ones. Exactly one
// of (blob, fail, err) is meaningful: blob on success, fail when the
// chunk is quarantined (the job continues), err when the whole job must
// unwind (lifecycle causes and unclassified failures — preserving the
// fail-fast contract for errors the taxonomy does not know).
func (m *Manager) superviseChunk(ctx context.Context, j *job, c int) (blob []byte, fail *ChunkFailure, err error) {
	retries := m.cfg.chunkRetries()
	bo := resilience.Backoff{
		Base: m.cfg.RetryBackoffBase,
		Cap:  m.cfg.RetryBackoffCap,
		Seed: backoffSeed(j.id, c),
	}
	for attempt := 1; ; attempt++ {
		actx, cancel := ctx, context.CancelFunc(nil)
		if m.cfg.ChunkDeadline > 0 {
			actx, cancel = context.WithDeadlineCause(ctx, time.Now().Add(m.cfg.ChunkDeadline), errChunkStuck)
		}
		actx = m.metaCtx(actx, j.id, c)
		err := faultinject.Inject(actx, faultinject.SiteJobsStep)
		if err == nil {
			blob, err = j.task.Run(actx, c)
		}
		stuck := errors.Is(context.Cause(actx), errChunkStuck)
		if cancel != nil {
			cancel()
		}
		if err == nil {
			return blob, nil, nil
		}
		if ctx.Err() != nil {
			// The job-level context ended (cancel, stop, crash, job
			// deadline): unwind; runJob classifies via context.Cause.
			return nil, nil, fmt.Errorf("chunk %d: %w", c, err)
		}
		class := resilience.ClassOf(err)
		if stuck {
			// The watchdog tripped this attempt: a stuck chunk is a
			// transient fault whatever error it surfaced as.
			class = resilience.ClassTransient
			err = fmt.Errorf("%w (attempt %d exceeded %s)", errChunkStuck, attempt, m.cfg.ChunkDeadline)
		} else if class == resilience.ClassUnknown && errors.Is(err, mathx.ErrNumeric) {
			class = resilience.ClassNumeric
		}
		switch class {
		case resilience.ClassTransient:
			if attempt <= retries && j.retry.Take() {
				m.chunkRetries.Add(1)
				if rerr := faultinject.Inject(m.metaCtx(ctx, j.id, c), faultinject.SiteJobsChunkRetry); rerr != nil {
					// An injected retry abort: quarantine now, as if the
					// retries were exhausted.
					break
				}
				if werr := bo.Wait(ctx, attempt-1); werr != nil {
					return nil, nil, fmt.Errorf("chunk %d: %w", c, werr)
				}
				continue
			}
		case resilience.ClassPoison, resilience.ClassNumeric:
			// Deterministic for this chunk: retrying recomputes the same
			// pathology, so quarantine immediately.
		default:
			// Permanent or unclassified: fail the whole job.
			return nil, nil, fmt.Errorf("chunk %d: %w", c, err)
		}
		return nil, &ChunkFailure{Chunk: c, Attempts: attempt, Error: err.Error()}, nil
	}
}

// finalize merges the chunks and goes terminal. A job with quarantined
// chunks cannot merge (Finalize needs every chunk), so it terminates
// completed_partial with a result document carrying the counts and the
// failure manifest.
func (m *Manager) finalize(j *job) {
	m.mu.Lock()
	failed := append([]ChunkFailure(nil), j.failed...)
	completed := bitCount(j.bitmap, j.chunks)
	m.mu.Unlock()
	if len(failed) > 0 {
		doc, err := json.Marshal(struct {
			Status    string         `json:"status"`
			Chunks    int            `json:"chunks"`
			Completed int            `json:"completedChunks"`
			Manifest  []ChunkFailure `json:"manifest"`
		}{string(StatusCompletedPartial), j.chunks, completed, failed})
		if err != nil {
			m.terminal(j, StatusFailed, fmt.Sprintf("partial result: %v", err))
			return
		}
		m.mu.Lock()
		j.result = doc
		m.mu.Unlock()
		m.partialJobs.Add(1)
		m.terminal(j, StatusCompletedPartial, fmt.Sprintf("%d/%d chunks quarantined", len(failed), j.chunks))
		return
	}
	res, err := j.task.Finalize(context.Background(), j.data)
	if err != nil {
		m.terminal(j, StatusFailed, fmt.Sprintf("finalize: %v", err))
		return
	}
	m.mu.Lock()
	j.result = res
	m.mu.Unlock()
	m.terminal(j, StatusDone, "")
}

// terminal moves j to a final state. The compacted journal is written
// first, and only when that write returns (a failure is counted) do
// views, Result and Done see the final state: a crash in between
// resumes a job no client has seen finish. The job then releases its
// chunk blobs and its task (a chipcheck task holds its compiled grid
// and coupled field): a finished job answers from its result or error
// alone, and up to MaxJobs of them stay in the table.
func (m *Manager) terminal(j *job, st Status, errMsg string) {
	m.persistTerminal(j, st, errMsg)
	m.mu.Lock()
	j.status = st
	j.errMsg = errMsg
	j.data = nil
	j.task = nil
	m.mu.Unlock()
	close(j.done)
}

// checkpoint writes j's journal with current progress. A checkpoint
// failure (or an injected one at SiteJobsCheckpoint) skips this write
// and counts it: the job keeps computing — at worst a crash replays the
// chunks since the last durable write, which the determinism contract
// makes invisible. While the journal is degraded (a previous write
// failed — ENOSPC, dead disk), checkpoints are absorbed in-memory and
// only one real write per JournalReprobe interval probes whether the
// disk recovered.
func (m *Manager) checkpoint(ctx context.Context, j *job) {
	if m.cfg.Dir == "" {
		return
	}
	if err := faultinject.Inject(ctx, faultinject.SiteJobsCheckpoint); err != nil {
		m.checkpointSkips.Add(1)
		return
	}
	if m.degraded.Load() {
		if time.Now().UnixNano()-m.lastProbe.Load() < int64(m.cfg.JournalReprobe) {
			m.degradedSkips.Add(1)
			return
		}
		m.journalReprobes.Add(1)
	}
	if err := m.writeDurable(j, nil); err != nil {
		m.checkpointErrors.Add(1)
		log.Printf("jobs: checkpoint %s: %v (journal degraded, continuing in-memory)", j.id, err)
		return
	}
	m.checkpoints.Add(1)
}

// terminalState is the final status a terminal journal write records
// before the job shows it.
type terminalState struct {
	status Status
	errMsg string
}

// persistTerminal writes j's compacted journal in its final state st
// (best-effort: the in-memory table is authoritative for this process's
// lifetime).
func (m *Manager) persistTerminal(j *job, st Status, errMsg string) {
	if m.cfg.Dir == "" {
		return
	}
	if err := m.writeDurable(j, &terminalState{st, errMsg}); err != nil {
		m.checkpointErrors.Add(1)
		log.Printf("jobs: persist %s: %v", j.id, err)
		return
	}
	m.checkpoints.Add(1)
}

// writeDurable is writeJournal plus the degradation state machine: a
// failed write flips the manager degraded (counted on the transition)
// and stamps the probe clock; a successful write while degraded is the
// recovery.
func (m *Manager) writeDurable(j *job, final *terminalState) error {
	err := m.writeJournal(j, final)
	if err != nil {
		if !m.degraded.Swap(true) {
			m.degradedEvents.Add(1)
		}
		m.lastProbe.Store(time.Now().UnixNano())
		return err
	}
	if m.degraded.Swap(false) {
		m.journalRecoveries.Add(1)
	}
	return nil
}

// writeJournal brings j's journal up to date. A live job whose log is
// durable gets an append: the records for the chunks and quarantine
// decisions that are new since the last durable write, then one fsync.
// Everything else — the submit, a log that a failed write or a
// chunk-grid reset left stale, a terminal job — gets one atomic rewrite
// of the whole file. j is snapshotted under the lock and written
// outside it (blobs are immutable once set, and manifest entries once
// appended). A non-nil final writes the terminal journal: j in that
// state, without its chunk blobs.
func (m *Manager) writeJournal(j *job, final *terminalState) error {
	if m.cfg.Dir == "" {
		return nil
	}
	m.mu.Lock()
	jf := journalFile{
		journalHeader: journalHeader{
			ID: j.id, Type: j.typ, Lane: j.lane,
			Params: j.params, ParamsSum: paramsSum(j.params),
			Deadline: j.deadline, Submitted: j.submitted,
			Status: j.status, Chunks: j.chunks,
			Bitmap: append([]uint64(nil), j.bitmap...),
			Result: j.result, ErrMsg: j.errMsg,
		},
		ChunkData: j.data,
	}
	failed := j.failed
	off, logged, loggedFailed := j.logLen, j.logged, j.loggedFailed
	m.mu.Unlock()
	if final != nil {
		jf.Status, jf.ErrMsg, jf.ChunkData = final.status, final.errMsg, nil
	}
	if jf.Status == StatusRunning {
		// A journal never claims "running": the process writing it may
		// die the next instant, and on disk that state means "queued
		// with progress".
		jf.Status = StatusQueued
	}
	var data []byte
	if off > 0 && !jf.Status.Terminal() {
		data = appendRecords(nil, jf.Bitmap, logged, jf.ChunkData, failed[loggedFailed:])
		if len(data) == 0 {
			return nil // nothing new since the last durable write
		}
	} else {
		off = 0
		if len(failed) > 0 {
			jf.Manifest = EncodeManifest(failed)
		}
		var err error
		if data, err = encodeJournal(&jf); err != nil {
			return err
		}
	}
	if faultinject.Active() {
		// SiteJobsJournalWrite simulates a failing disk (ENOSPC, IO error)
		// at the exact point the bytes would hit it.
		ictx := faultinject.WithMeta(context.Background(), j.id)
		if err := faultinject.Inject(ictx, faultinject.SiteJobsJournalWrite); err != nil {
			m.setLogged(j, 0, nil, 0)
			return fmt.Errorf("jobs: journal write %s: %w", j.id, err)
		}
	}
	m.journalBytes.Add(uint64(len(data)))
	path := journalPath(m.cfg.Dir, j.id)
	var err error
	if off > 0 {
		err = appendJournal(path, off, data)
	} else {
		err = snapcodec.WriteFileAtomic(path, data)
	}
	if err != nil {
		// The file may now end in a partial record; rewrite it whole next
		// time rather than append after bytes replay would stop at.
		m.setLogged(j, 0, nil, 0)
		return err
	}
	m.setLogged(j, off+int64(len(data)), jf.Bitmap, len(failed))
	return nil
}

// setLogged records j's durable journal extent after a write.
func (m *Manager) setLogged(j *job, logLen int64, logged []uint64, loggedFailed int) {
	m.mu.Lock()
	j.logLen, j.logged, j.loggedFailed = logLen, logged, loggedFailed
	m.mu.Unlock()
}

func (m *Manager) removeJournal(id string) {
	if m.cfg.Dir == "" {
		return
	}
	_ = os.Remove(journalPath(m.cfg.Dir, id))
}
