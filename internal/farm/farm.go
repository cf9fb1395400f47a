// Package farm is the multi-guest serving subsystem: it runs many
// independent guest VMs concurrently in one process — goroutine-per-VM
// behind an admission-controlled queue — over ONE shared content-addressed
// translation store, so identical hot regions across VMs are translated and
// compiled once (the way an inference server shares compiled kernels across
// requests).
//
// The determinism contract is the paper's, scaled out: sharing is safe
// exactly because every translation's assumptions are explicit in its
// content key (source bytes, trace, policy rung, MMIO bits, host), and
// install/chaining stays per-VM — each VM's simulated Metrics and final
// architectural state are bit-identical to a solo run of the same workload
// (proven by differential test). The store moves wall-clock time only.
//
// Lock layout (docs/INTERNALS.md "Hot-path architecture"): there is no
// farm-wide mutex on any hot path. Admission (Submit) takes a read lock on
// admMu — shared among concurrent submitters, exclusive only against the
// one-time queue close in Drain — plus a short exclusive section on jobsMu
// to register the job. Runners never touch the job table: a job travels to
// its runner through the queue channel, and all per-job lifecycle state is
// guarded by that job's own mutex, so observers snapshotting one job never
// block another job's runner. Counters hot enough to be touched per job
// (queued/active) are atomics; per-runner aggregates live in cache-line-
// padded shards owned by one runner each and are folded only when Stats()
// is read.
package farm

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"cms/internal/asm"
	"cms/internal/cms"
	"cms/internal/dev"
	"cms/internal/fuzzer"
	"cms/internal/guest"
	"cms/internal/incident"
	"cms/internal/snapshot"
	"cms/internal/tcache"
	"cms/internal/workload"
)

// Config shapes a Farm. The zero value is normalized to the defaults.
type Config struct {
	// MaxVMs is how many guest VMs run concurrently (default 4). Each VM is
	// one goroutine running one job's engine to completion.
	MaxVMs int
	// QueueDepth bounds the admission queue (default 64). Submit fails with
	// ErrQueueFull beyond it — the backpressure cmsserve turns into HTTP 429.
	QueueDepth int
	// StoreCapAtoms bounds the shared translation store (0 = default).
	StoreCapAtoms int
	// StoreShards overrides the shared store's shard count (0 = size from
	// GOMAXPROCS). Tests force a wide array so cross-shard behavior is
	// exercised even on small hosts.
	StoreShards int
	// Engine is the per-VM engine configuration template. Its SharedStore
	// field is overwritten with the farm's store.
	Engine cms.Config
	// DefaultBudget is the guest instruction budget for source jobs and
	// workload jobs that do not set one (default 100M).
	DefaultBudget uint64

	// IncidentDir, when non-empty, receives one JSON incident bundle per
	// failed engine attempt (panic, watchdog timeout, or engine error) —
	// replayable solo with `cmsfuzz -replay <bundle>`. Setup failures (a
	// source that does not assemble) produce no bundle: no engine ran.
	IncidentDir string

	// DisableRetry turns off the rung-demoting retry: failed and panicked
	// jobs then report their first attempt's outcome directly.
	DisableRetry bool

	// BreakerWindow sizes the circuit breaker's recent-outcome ring
	// (0 = default 32, negative = breaker disabled). The breaker opens when
	// the window is full and at least half its outcomes are failures or
	// timeouts; while open, Submit sheds load with ErrBreakerOpen, admitting
	// every BreakerProbe-th request as a probe. Any success closes it.
	BreakerWindow int
	// BreakerProbe is the probe admission period while open (default 8).
	BreakerProbe int
}

func (c Config) normalized() Config {
	if c.MaxVMs <= 0 {
		c.MaxVMs = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.DefaultBudget == 0 {
		c.DefaultBudget = 100_000_000
	}
	if c.BreakerWindow == 0 {
		c.BreakerWindow = 32
	}
	if c.BreakerProbe <= 0 {
		c.BreakerProbe = 8
	}
	return c
}

// Status is a job's lifecycle state.
type Status string

const (
	StatusQueued  Status = "queued"
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
	// StatusTimeout marks a job the per-job watchdog preempted: its
	// wall-clock deadline expired and the engine was stopped cooperatively
	// at a committed boundary. Timeouts are terminal (no retry — a demoted
	// rung is slower, not faster) but fully replayable from the incident
	// bundle's retired-instruction count.
	StatusTimeout Status = "timeout"
	// StatusCheckpointed marks a job preempted by Checkpoint or
	// CheckpointDrain: the engine was stopped cooperatively at a commit
	// boundary and serialized into a snapshot envelope (internal/snapshot).
	// The blob is retrievable with Snapshot(id) and resumable — here or on
	// another farm — with SubmitRestore; the resumed run retires exactly the
	// future the preempted one would have.
	StatusCheckpointed Status = "checkpointed"
)

// JobSpec describes one guest VM run: a named suite workload or raw g86
// assembly source, with an optional instruction budget.
type JobSpec struct {
	// Workload names a benchmark from the suite (workload.All).
	Workload string `json:"workload,omitempty"`
	// Source is raw g86 assembly, mutually exclusive with Workload.
	Source string `json:"source,omitempty"`
	// Budget overrides the guest instruction budget (0 = workload default).
	Budget uint64 `json:"budget,omitempty"`
	// DeadlineMs arms a per-job wall-clock watchdog: when it expires the
	// engine is preempted cooperatively at the next commit boundary and the
	// job finishes as StatusTimeout. 0 = no deadline.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	// InjectSeed, when non-zero, arms a deterministic fault-injection
	// schedule (internal/fuzzer) on the job's engine — the chaos harness's
	// way of forcing rollbacks, alias faults, and evictions in production
	// shape. ChaosPanics additionally injects deterministic host panics
	// (fuzzer.NewChaosSchedule).
	InjectSeed  uint64 `json:"inject_seed,omitempty"`
	ChaosPanics bool   `json:"chaos_panics,omitempty"`
}

// Result is a completed VM's final architectural state and statistics.
type Result struct {
	Regs    [guest.NumRegs]uint32 `json:"regs"`
	EIP     uint32                `json:"eip"`
	Flags   uint32                `json:"flags"`
	Halted  bool                  `json:"halted"`
	Console string                `json:"console,omitempty"`

	// Metrics is the full simulated statistics struct — bit-identical to a
	// solo run of the same job, shared store or not.
	Metrics    cms.Metrics  `json:"metrics"`
	CacheStats tcache.Stats `json:"cache_stats"`

	GuestInsns uint64 `json:"guest_insns"`
	Mols       uint64 `json:"mols"`
	// SharedHits/SharedMisses attribute this VM's translation requests to
	// the shared store (wall-clock observability; not part of Metrics).
	SharedHits   uint64 `json:"shared_hits"`
	SharedMisses uint64 `json:"shared_misses"`
	WallNs       int64  `json:"wall_ns"`

	// Retry provenance. Attempts is how many engine attempts ran (2 when
	// the job was retried on a demoted rung); Rung names the configuration
	// rung that produced this result ("full", "nocompile", or "interp");
	// RetryReason is the first attempt's failure when Attempts > 1.
	Attempts    int    `json:"attempts,omitempty"`
	Rung        string `json:"rung,omitempty"`
	RetryReason string `json:"retry_reason,omitempty"`
}

// job is the farm's internal record; JobView is its API snapshot. The
// identity fields (id, spec) are immutable after Submit; everything else is
// guarded by the job's own mutex so observers of one job never contend with
// other jobs' runners.
type job struct {
	id   string
	spec JobSpec

	// restore, when non-nil, makes the attempt resume this decoded snapshot
	// instead of building a platform from the spec; restoreBlob keeps the
	// original envelope so failure bundles can embed it for record-replay
	// (both immutable after submit).
	restore     *snapshot.Snapshot
	restoreBlob []byte
	// checkpoint asks the running engine to stop at its next commit boundary
	// and serialize itself; set by Checkpoint and CheckpointDrain, polled by
	// the attempt's cooperative cancel hook.
	checkpoint atomic.Bool

	mu        sync.Mutex
	status    Status
	errMsg    string
	result    *Result
	snap      []byte   // snapshot envelope, set when status is StatusCheckpointed
	incidents []string // bundle paths written for this job's failed attempts
	created   time.Time
	started   time.Time
	finished  time.Time
}

// JobView is an immutable snapshot of a job for callers and the HTTP API.
type JobView struct {
	ID     string  `json:"id"`
	Spec   JobSpec `json:"spec"`
	Status Status  `json:"status"`
	Error  string  `json:"error,omitempty"`
	Result *Result `json:"result,omitempty"`
	// LatencyNs is submit-to-completion wall time, including queue wait
	// (0 until the job finishes) — the number the farmscale harness turns
	// into p50/p99 serving latency.
	LatencyNs int64 `json:"latency_ns,omitempty"`
	// Incidents lists the replayable incident bundles written for this
	// job's failed attempts (empty for healthy jobs or without IncidentDir).
	Incidents []string `json:"incidents,omitempty"`
	// SnapshotBytes is the checkpoint envelope size for checkpointed jobs.
	SnapshotBytes int `json:"snapshot_bytes,omitempty"`
	// Restored marks a job submitted from a snapshot rather than an image.
	Restored bool `json:"restored,omitempty"`
}

// view snapshots the job under its own mutex.
func (j *job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{ID: j.id, Spec: j.spec, Status: j.status, Error: j.errMsg, Result: j.result,
		SnapshotBytes: len(j.snap), Restored: j.restore != nil}
	if len(j.incidents) > 0 {
		v.Incidents = append([]string(nil), j.incidents...)
	}
	switch j.status {
	case StatusDone, StatusFailed, StatusTimeout, StatusCheckpointed:
		v.LatencyNs = j.finished.Sub(j.created).Nanoseconds()
	}
	return v
}

// Errors Submit returns; cmsserve maps them to HTTP statuses. ErrQueueFull
// is transient backpressure (429: retry soon, same farm); ErrDraining is
// terminal for this process (503 + Retry-After: find another); ErrBreakerOpen
// is the circuit breaker shedding load after a failure storm (503: the farm
// is up but degraded, probes will close the breaker when health returns).
var (
	ErrQueueFull   = errors.New("farm: admission queue full")
	ErrDraining    = errors.New("farm: draining, not accepting jobs")
	ErrBreakerOpen = errors.New("farm: circuit breaker open, shedding load")
)

// runnerCounters is one runner's slice of the farm aggregates. Each runner
// owns exactly one element of Farm.runners and is the only writer; Stats()
// folds them on read. The atomics are uncontended in steady state, and the
// trailing pad keeps neighbouring runners' counters off one cache line.
type runnerCounters struct {
	done         atomic.Uint64
	failed       atomic.Uint64
	timeouts     atomic.Uint64 // jobs preempted by the watchdog
	checkpoints  atomic.Uint64 // jobs preempted into a snapshot
	panics       atomic.Uint64 // engine attempts that panicked (may be 2 per job)
	retries      atomic.Uint64 // rung-demoting retries started
	retrySuccess atomic.Uint64 // retries that completed the job
	guest        atomic.Uint64
	mols         atomic.Uint64
	xlate        atomic.Uint64
	rollbacks    atomic.Uint64
	retrans      atomic.Uint64
	_            [64]byte
}

// Farm runs guest VMs over a shared translation store.
type Farm struct {
	cfg   Config
	store *tcache.SharedStore
	queue chan *job
	wg    sync.WaitGroup

	// admMu serializes admission against the one-time queue close: Submit
	// holds it shared (submitters never block each other), Drain takes it
	// exclusive for the closed=true + close(queue) transition.
	admMu  sync.RWMutex
	closed bool

	// jobsMu guards only the job table and submission order; per-job state
	// is behind each job's own mutex.
	jobsMu sync.RWMutex
	jobs   map[string]*job
	order  []*job

	seq       atomic.Uint64 // job-id sequence; may skip on rejected admissions
	submitted atomic.Uint64 // successful admissions
	queued    atomic.Int64
	active    atomic.Int64

	incidents atomic.Uint64 // incident bundles written (rare; farm-wide)

	breaker breaker

	runners []runnerCounters
}

// New starts a farm: MaxVMs runner goroutines over an empty shared store.
func New(cfg Config) *Farm {
	cfg = cfg.normalized()
	f := &Farm{
		cfg:     cfg,
		store:   tcache.NewSharedShards(cfg.StoreCapAtoms, cfg.StoreShards),
		queue:   make(chan *job, cfg.QueueDepth),
		jobs:    make(map[string]*job),
		runners: make([]runnerCounters, cfg.MaxVMs),
	}
	f.breaker.init(cfg.BreakerWindow, cfg.BreakerProbe)
	if cfg.IncidentDir != "" {
		_ = os.MkdirAll(cfg.IncidentDir, 0o755) // best-effort; writes degrade gracefully
	}
	f.wg.Add(cfg.MaxVMs)
	for i := 0; i < cfg.MaxVMs; i++ {
		go f.runner(i)
	}
	return f
}

// Store exposes the shared translation store (for stats and tests).
func (f *Farm) Store() *tcache.SharedStore { return f.store }

// Submit validates and enqueues a job. It never blocks: a full queue is
// ErrQueueFull, a draining farm is ErrDraining. Concurrent submitters do
// not serialize against each other or against running jobs' bookkeeping —
// the only exclusive section is the job-table insert.
func (f *Farm) Submit(spec JobSpec) (JobView, error) {
	if (spec.Workload == "") == (spec.Source == "") {
		return JobView{}, errors.New("farm: spec needs exactly one of workload or source")
	}
	if spec.Workload != "" {
		if _, err := workload.ByName(spec.Workload); err != nil {
			return JobView{}, err
		}
	}
	return f.admit(spec, nil, nil)
}

// SubmitRestore admits a job that resumes a checkpoint envelope instead of
// booting an image. spec must leave Workload and Source empty; Budget, when
// non-zero, overrides the captured run's budget (the default resumes with the
// same budget, so the combined run retires exactly what an uninterrupted one
// would). If the snapshot was captured under fault injection, spec must carry
// the same InjectSeed/ChaosPanics so the schedule can be rebuilt and
// fast-forwarded.
func (f *Farm) SubmitRestore(blob []byte, spec JobSpec) (JobView, error) {
	if spec.Workload != "" || spec.Source != "" {
		return JobView{}, errors.New("farm: restore spec must not name a workload or source")
	}
	s, err := snapshot.Decode(blob)
	if err != nil {
		return JobView{}, err
	}
	// Friendlier at admission than mid-attempt: an injected capture cannot
	// resume without its schedule.
	if len(s.Engine.Injector) > 0 && spec.InjectSeed == 0 {
		return JobView{}, errors.New("farm: snapshot carries fault-injection state; spec must set inject_seed")
	}
	return f.admit(spec, s, blob)
}

// admit is the shared admission path for Submit and SubmitRestore.
func (f *Farm) admit(spec JobSpec, restore *snapshot.Snapshot, restoreBlob []byte) (JobView, error) {
	f.admMu.RLock()
	defer f.admMu.RUnlock()
	if f.closed {
		return JobView{}, ErrDraining
	}
	if !f.breaker.admit() {
		return JobView{}, ErrBreakerOpen
	}
	j := &job{
		id:          fmt.Sprintf("job-%06d", f.seq.Add(1)),
		spec:        spec,
		restore:     restore,
		restoreBlob: restoreBlob,
		status:      StatusQueued,
		created:     time.Now(),
	}
	f.queued.Add(1)
	select {
	case f.queue <- j:
	default:
		f.queued.Add(-1)
		return JobView{}, ErrQueueFull
	}
	f.submitted.Add(1)
	f.jobsMu.Lock()
	f.jobs[j.id] = j
	f.order = append(f.order, j)
	f.jobsMu.Unlock()
	return j.view(), nil
}

// Job returns a snapshot of one job.
func (f *Farm) Job(id string) (JobView, bool) {
	f.jobsMu.RLock()
	j, ok := f.jobs[id]
	f.jobsMu.RUnlock()
	if !ok {
		return JobView{}, false
	}
	return j.view(), true
}

// Jobs returns snapshots of every job in submission order. The job table is
// held only long enough to copy the order slice; per-job snapshots and any
// formatting by the caller happen outside farm-wide locks.
func (f *Farm) Jobs() []JobView {
	f.jobsMu.RLock()
	order := make([]*job, len(f.order))
	copy(order, f.order)
	f.jobsMu.RUnlock()
	out := make([]JobView, 0, len(order))
	for _, j := range order {
		out = append(out, j.view())
	}
	return out
}

// Draining reports whether admission has been closed (Drain was called) —
// the readiness signal cmsserve's /readyz surfaces.
func (f *Farm) Draining() bool {
	f.admMu.RLock()
	defer f.admMu.RUnlock()
	return f.closed
}

// Drain stops admission and waits for every queued and running job to
// finish — the SIGTERM path of cmsserve. Safe to call more than once.
func (f *Farm) Drain() {
	f.admMu.Lock()
	if !f.closed {
		f.closed = true
		close(f.queue)
	}
	f.admMu.Unlock()
	f.wg.Wait()
}

// Checkpoint asks a queued or running job to stop at its next commit
// boundary and serialize itself, then waits for the preemption to land. On
// success it returns the job's view and the snapshot envelope. If the job
// reaches a different terminal state first — it halted, failed, or timed out
// before the flag was observed — Checkpoint reports that instead of blocking.
func (f *Farm) Checkpoint(id string) (JobView, []byte, error) {
	f.jobsMu.RLock()
	j, ok := f.jobs[id]
	f.jobsMu.RUnlock()
	if !ok {
		return JobView{}, nil, fmt.Errorf("farm: no such job %s", id)
	}
	j.checkpoint.Store(true)
	for {
		j.mu.Lock()
		st, snap := j.status, j.snap
		j.mu.Unlock()
		switch st {
		case StatusCheckpointed:
			return j.view(), snap, nil
		case StatusQueued, StatusRunning:
			time.Sleep(200 * time.Microsecond)
		default:
			return j.view(), nil, fmt.Errorf("farm: job %s finished as %s before checkpoint", id, st)
		}
	}
}

// Snapshot returns the checkpoint envelope of a checkpointed job.
func (f *Farm) Snapshot(id string) ([]byte, bool) {
	f.jobsMu.RLock()
	j, ok := f.jobs[id]
	f.jobsMu.RUnlock()
	if !ok {
		return nil, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snap, len(j.snap) > 0
}

// CheckpointDrain is Drain for live migration: it stops admission, preempts
// every queued and running job into a checkpoint rather than running it to
// completion, waits for the runners to quiesce, and returns the views of the
// jobs that checkpointed. Jobs that finish before the flag lands complete
// normally and are not in the returned slice; their results stay queryable.
func (f *Farm) CheckpointDrain() []JobView {
	f.admMu.Lock()
	if !f.closed {
		f.closed = true
		close(f.queue)
	}
	f.admMu.Unlock()
	f.jobsMu.RLock()
	jobs := make([]*job, len(f.order))
	copy(jobs, f.order)
	f.jobsMu.RUnlock()
	for _, j := range jobs {
		j.checkpoint.Store(true)
	}
	f.wg.Wait()
	var out []JobView
	for _, j := range jobs {
		if v := j.view(); v.Status == StatusCheckpointed {
			out = append(out, v)
		}
	}
	return out
}

// Wait blocks until every currently submitted job has finished, without
// closing admission (tests and the bench harness).
func (f *Farm) Wait() {
	for {
		if f.queued.Load() == 0 && f.active.Load() == 0 {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// Stats is a point-in-time snapshot of farm-level counters.
type Stats struct {
	VMs       int
	Active    int
	Queued    int
	Done      uint64
	Failed    uint64
	Submitted uint64

	// Fault-containment counters. Timeouts are watchdog preemptions (jobs);
	// Checkpoints counts jobs preempted into a snapshot; Panics counts
	// panicked engine attempts; Retries/RetrySuccesses track the
	// rung-demoting retry; Incidents counts bundles written; BreakerOpen
	// and BreakerShed describe the admission circuit breaker.
	Timeouts       uint64
	Checkpoints    uint64
	Panics         uint64
	Retries        uint64
	RetrySuccesses uint64
	Incidents      uint64
	BreakerOpen    bool
	BreakerShed    uint64

	Store tcache.SharedStats

	// Aggregates over completed jobs.
	GuestInsns     uint64
	Mols           uint64
	Translations   uint64
	Rollbacks      uint64 // faults absorbed by rollback + re-interpretation
	Retranslations uint64 // adaptive retranslation events
}

// Stats returns the farm's counters, folded from the per-runner shards and
// the store's per-shard atomics. It takes no farm-wide lock and is safe to
// call at any rate while jobs run.
func (f *Farm) Stats() Stats {
	st := Stats{
		VMs:         f.cfg.MaxVMs,
		Active:      int(f.active.Load()),
		Queued:      int(f.queued.Load()),
		Submitted:   f.submitted.Load(),
		Incidents:   f.incidents.Load(),
		BreakerOpen: f.breaker.isOpen(),
		BreakerShed: f.breaker.shedCount(),
		Store:       f.store.Stats(),
	}
	if st.Queued < 0 {
		st.Queued = 0 // transient: a runner decremented before Submit's increment landed
	}
	for i := range f.runners {
		r := &f.runners[i]
		st.Done += r.done.Load()
		st.Failed += r.failed.Load()
		st.Timeouts += r.timeouts.Load()
		st.Checkpoints += r.checkpoints.Load()
		st.Panics += r.panics.Load()
		st.Retries += r.retries.Load()
		st.RetrySuccesses += r.retrySuccess.Load()
		st.GuestInsns += r.guest.Load()
		st.Mols += r.mols.Load()
		st.Translations += r.xlate.Load()
		st.Rollbacks += r.rollbacks.Load()
		st.Retranslations += r.retrans.Load()
	}
	return st
}

// runner is one VM slot: it executes queued jobs to completion, one at a
// time, until the queue closes. Lifecycle updates touch only the job's own
// mutex and this runner's counter shard — never a farm-wide lock.
func (f *Farm) runner(slot int) {
	defer f.wg.Done()
	rc := &f.runners[slot]
	for j := range f.queue {
		f.active.Add(1)
		f.queued.Add(-1)
		j.mu.Lock()
		j.status = StatusRunning
		j.started = time.Now()
		j.mu.Unlock()

		f.process(j, rc)

		f.active.Add(-1)
	}
}

// rungName names the conservativeness rung a configuration sits on.
func rungName(c cms.Config) string {
	switch {
	case c.NoTranslate:
		return "interp"
	case !c.EnableCompiledBackend:
		return "nocompile"
	default:
		return "full"
	}
}

// demote returns the next more-conservative rung for the retry: the compiled
// backend is switched off first, then translation entirely (interpreter
// only — the always-correct reference mode, and the most isolated: nothing
// is compiled, installed, or shared). ok is false at the bottom of the
// ladder.
func demote(c cms.Config) (cms.Config, string, bool) {
	switch {
	case c.NoTranslate:
		return c, "interp", false
	case c.EnableCompiledBackend:
		c.EnableCompiledBackend = false
		return c, "nocompile", true
	default:
		c.NoTranslate = true
		c.PipelineWorkers = 0
		return c, "interp", true
	}
}

// process runs one job through up to two engine attempts — the configured
// rung, then (for panics and engine errors, not timeouts) one retry on the
// next rung down — and finalizes the job's status, counters, and breaker
// outcome. This is the paper's speculate/recover/retranslate-conservatively
// response lifted to whole jobs: the aggressive configuration is the
// speculation, the recover() and watchdog are the rollback, and the demoted
// rung is the conservative retranslation.
func (f *Farm) process(j *job, rc *runnerCounters) {
	out := f.attempt(j, 0, f.cfg.Engine, rungName(f.cfg.Engine))
	countAttempt(rc, out)
	incidents := out.incidents()
	retried := false
	firstErr := ""
	// Restored jobs never retry on a demoted rung: a snapshot is only valid
	// under the configuration it was captured with.
	if out.res == nil && out.retryable && j.restore == nil && !f.cfg.DisableRetry {
		if demoted, drung, ok := demote(f.cfg.Engine); ok {
			retried = true
			firstErr = out.err.Error()
			rc.retries.Add(1)
			out = f.attempt(j, 1, demoted, drung)
			countAttempt(rc, out)
			incidents = append(incidents, out.incidents()...)
		}
	}

	j.mu.Lock()
	j.finished = time.Now()
	j.incidents = incidents
	switch {
	case out.snap != nil:
		j.status = StatusCheckpointed
		j.snap = out.snap
	case out.res != nil:
		if retried {
			out.res.RetryReason = firstErr
		}
		j.status = StatusDone
		j.result = out.res
	case out.kind == incident.KindTimeout:
		j.status = StatusTimeout
		j.errMsg = out.err.Error()
	default:
		j.status = StatusFailed
		j.errMsg = out.err.Error()
	}
	j.mu.Unlock()

	switch {
	case out.snap != nil:
		// A checkpoint is a healthy preemption, not a failure: the breaker
		// must not open because a drain swept the farm.
		rc.checkpoints.Add(1)
		f.breaker.record(false)
	case out.res != nil:
		res := out.res
		if retried {
			rc.retrySuccess.Add(1)
		}
		rc.done.Add(1)
		rc.guest.Add(res.GuestInsns)
		rc.mols.Add(res.Mols)
		rc.xlate.Add(res.Metrics.Translations)
		var rb, rt uint64
		for _, n := range res.Metrics.Faults {
			rb += n
		}
		for _, n := range res.Metrics.Adaptations {
			rt += n
		}
		rc.rollbacks.Add(rb)
		rc.retrans.Add(rt)
		f.breaker.record(false)
	case out.kind == incident.KindTimeout:
		rc.timeouts.Add(1)
		f.breaker.record(true)
	default:
		rc.failed.Add(1)
		f.breaker.record(true)
	}
}

// countAttempt folds per-attempt (not per-job) outcomes into the runner's
// counter shard.
func countAttempt(rc *runnerCounters, out attemptOut) {
	if out.kind == incident.KindPanic {
		rc.panics.Add(1)
	}
}

// attemptOut is the outcome of one engine attempt.
type attemptOut struct {
	res       *Result // non-nil on success
	snap      []byte  // non-nil when the attempt was preempted into a checkpoint
	err       error
	kind      string // incident.Kind* for engine failures, "" for setup errors
	retryable bool
	incident  string // bundle path, "" when none was written
}

func (o attemptOut) incidents() []string {
	if o.incident == "" {
		return nil
	}
	return []string{o.incident}
}

// attempt runs one VM once under engCfg. Workload jobs are set up exactly
// like the solo harness (internal/bench.Run) — same platform, same load,
// same budget — so the differential test can compare farm results against
// solo runs byte-for-byte. The engine runs inside a recover() so a host
// panic — a compiled-closure bug, or an injected chaos panic — is contained
// to this attempt: the implicated shared artifact is poisoned, an incident
// bundle is written, and the runner keeps serving.
func (f *Farm) attempt(j *job, n int, engCfg cms.Config, rung string) attemptOut {
	spec := j.spec
	var (
		org, entry uint32
		data, disk []byte
		ram        uint32
		budget     uint64
		stackTop   uint32
	)
	if j.restore == nil {
		switch {
		case spec.Workload != "":
			w, err := workload.ByName(spec.Workload)
			if err != nil {
				return attemptOut{err: err}
			}
			img := w.Build()
			org, data, entry = img.Org, img.Data, img.Entry
			disk, ram, budget = img.Disk, img.RAM, img.Budget
		default:
			prog, err := asm.Assemble(spec.Source)
			if err != nil {
				return attemptOut{err: err}
			}
			org, data, entry = prog.Org, prog.Image, prog.Entry()
			ram = 1 << 21
			budget = f.cfg.DefaultBudget
			stackTop = ram / 2
		}
	}
	if spec.Budget > 0 {
		budget = spec.Budget
	}

	cfg := engCfg
	cfg.SharedStore = f.store

	var sched *fuzzer.Schedule
	if spec.InjectSeed != 0 {
		if spec.ChaosPanics {
			sched = fuzzer.NewChaosSchedule(spec.InjectSeed)
		} else {
			sched = fuzzer.NewSchedule(spec.InjectSeed)
		}
		cfg.Injector = sched
	}

	// The watchdog and checkpoint requests share one cooperative hook: a
	// timer flips the deadline flag, Checkpoint/CheckpointDrain flip the
	// job's checkpoint flag, and the engine polls both at commit boundaries
	// (cms.Config.Cancel), stopping with ErrCancelled at the first boundary
	// past either. The poll's false path is metrics-invisible, so the
	// always-armed hook keeps farm runs bit-identical to solo runs.
	var cancelled atomic.Bool
	cfg.Cancel = func() bool { return cancelled.Load() || j.checkpoint.Load() }
	if spec.DeadlineMs > 0 {
		timer := time.AfterFunc(time.Duration(spec.DeadlineMs)*time.Millisecond, func() { cancelled.Store(true) })
		defer timer.Stop()
	}

	var (
		e    *cms.Engine
		plat *dev.Platform
	)
	if j.restore != nil {
		re, err := snapshot.Restore(j.restore, cfg)
		if err != nil {
			return attemptOut{err: fmt.Errorf("farm: restore: %w", err)}
		}
		e, plat = re, re.Plat
		if sched != nil {
			// The schedule was fast-forwarded from the snapshot; the bus hook
			// must point at the rebuilt schedule, not the captured engine's.
			plat.Bus.ForceProtHit = sched.ForceProtHit
		}
		if spec.Budget == 0 {
			// Resume with the captured run's budget: Run counts cumulative
			// retirement, so the combined run stops exactly where an
			// uninterrupted one would.
			budget = e.Budget()
		}
	} else {
		plat = dev.NewPlatform(ram, disk)
		plat.Bus.WriteRaw(org, data)
		if sched != nil {
			plat.Bus.ForceProtHit = sched.ForceProtHit
		}
		e = cms.New(plat, entry, cfg)
		if stackTop != 0 {
			e.CPU().Regs[guest.ESP] = stackTop
		}
	}

	t0 := time.Now()
	var (
		runErr   error
		panicked bool
		panicVal interface{}
		stack    string
	)
	func() {
		defer func() {
			if r := recover(); r != nil {
				panicked = true
				panicVal = r
				stack = string(debug.Stack())
			}
		}()
		runErr = e.Run(budget)
	}()
	wall := time.Since(t0).Nanoseconds()

	imageSHA := ""
	if j.restore == nil {
		imageSHA = incident.ImageHash(org, entry, ram, data, disk)
	}
	capture := func(kind, errMsg string) string {
		return f.writeIncident(j, n, rung, kind, errMsg, stack, spec, budget,
			imageSHA, cfg, e, plat)
	}

	switch {
	case panicked:
		// Contain the blast radius: quarantine the shared artifact that was
		// executing (best single suspect) so other VMs stop importing it.
		if key, ok := e.ImplicatedKey(); ok {
			f.store.Poison(key, tcache.DefaultPoisonTTL)
		}
		errMsg := fmt.Sprintf("panic: %v", panicVal)
		out := attemptOut{err: errors.New(errMsg), kind: incident.KindPanic, retryable: true}
		out.incident = capture(incident.KindPanic, errMsg)
		return out
	case errors.Is(runErr, cms.ErrCancelled) && j.checkpoint.Load():
		// Checkpoint wins over a concurrent deadline: a serialized VM that
		// can resume elsewhere is strictly more useful than a timeout.
		blob, err := snapshot.Save(e)
		if err != nil {
			errMsg := fmt.Sprintf("checkpoint failed: %v", err)
			out := attemptOut{err: errors.New(errMsg), kind: incident.KindError}
			out.incident = capture(incident.KindError, errMsg)
			return out
		}
		return attemptOut{snap: blob}
	case errors.Is(runErr, cms.ErrCancelled):
		errMsg := fmt.Sprintf("deadline of %dms exceeded after %d guest insns", spec.DeadlineMs, e.Metrics.GuestTotal())
		out := attemptOut{err: errors.New(errMsg), kind: incident.KindTimeout}
		out.incident = capture(incident.KindTimeout, errMsg)
		return out
	case runErr != nil:
		out := attemptOut{err: runErr, kind: incident.KindError, retryable: true}
		out.incident = capture(incident.KindError, runErr.Error())
		return out
	}

	cpu := e.CPU()
	hits, misses := e.SharedStats()
	return attemptOut{res: &Result{
		Regs:         cpu.Regs,
		EIP:          cpu.EIP,
		Flags:        cpu.Flags,
		Halted:       cpu.Halted,
		Console:      plat.Console.OutputString(),
		Metrics:      e.Metrics,
		CacheStats:   e.Cache.Stats,
		GuestInsns:   e.Metrics.GuestTotal(),
		Mols:         e.Metrics.TotalMols(),
		SharedHits:   hits,
		SharedMisses: misses,
		WallNs:       wall,
		Attempts:     n + 1,
		Rung:         rung,
	}}
}

// writeIncident captures a failed attempt as a replayable bundle in
// Config.IncidentDir. Best-effort: a write failure loses the bundle, never
// the job's status.
func (f *Farm) writeIncident(j *job, n int, rung, kind, errMsg, stack string,
	spec JobSpec, budget uint64, imageSHA string, cfg cms.Config,
	e *cms.Engine, plat *dev.Platform) string {
	if f.cfg.IncidentDir == "" {
		return ""
	}
	b := &incident.Bundle{
		Job:         j.id,
		Time:        incident.Timestamp(time.Now()),
		Attempt:     n,
		Rung:        rung,
		Kind:        kind,
		Error:       errMsg,
		Stack:       stack,
		Workload:    spec.Workload,
		Source:      spec.Source,
		Budget:      budget,
		DeadlineMs:  spec.DeadlineMs,
		InjectSeed:  spec.InjectSeed,
		ChaosPanics: spec.ChaosPanics,
		Retired:     e.Metrics.GuestTotal(),
		ArchSHA:     incident.StateHash(e, plat),
		ImageSHA:    imageSHA,
		Snapshot:    j.restoreBlob,
		Engine:      incident.FromCMS(cfg),
	}
	path := filepath.Join(f.cfg.IncidentDir, fmt.Sprintf("%s-a%d.json", j.id, n))
	if err := b.Write(path); err != nil {
		return ""
	}
	f.incidents.Add(1)
	return path
}
