// Command cmsserve is the serving daemon for the multi-guest farm: it runs
// N concurrent guest VMs over one shared content-addressed translation
// store and exposes a small HTTP API plus Prometheus-text metrics.
//
//	cmsserve -addr :8086 -vms 4
//
//	POST /v1/jobs        {"workload":"eqntott"} or {"source":"...", "budget":N,
//	                      "deadline_ms":N, "inject_seed":N, "chaos_panics":bool}
//	                     → 202 {job}, 400 bad spec, 429 queue full,
//	                       503 draining or circuit breaker open
//	GET  /v1/jobs        → all jobs in submission order
//	GET  /v1/jobs/{id}   → one job (includes result when done)
//	POST /v1/jobs/{id}/snapshot
//	                     → checkpoint a queued/running job at its next commit
//	                       boundary; the body is the snapshot envelope
//	                       (application/octet-stream). 409 if the job finished
//	                       first. Idempotent on checkpointed jobs.
//	POST /v1/restore     body = snapshot envelope → 202 {job} resuming it.
//	                       Query: budget, deadline_ms, inject_seed,
//	                       chaos_panics (needed when the capture ran injected).
//	POST /v1/migrate     {"job":"...","target":"http://host:port"} →
//	                       checkpoint locally, POST the envelope to the
//	                       target's /v1/restore, 200 {source, target} with
//	                       both job views. 502 if the target refuses.
//	GET  /metrics        → Prometheus text exposition
//	GET  /healthz        → 200 ok (process is up)
//	GET  /readyz         → 200 accepting work, 503 draining or breaker open
//
// The JSON bodies of POST /v1/jobs and /v1/migrate are decoded strictly:
// an unknown field, data after the object, or a body over 8 MiB is a 400
// "bad_json".
//
// Every 4xx/5xx body is JSON with a machine-readable "code" field
// ("bad_json", "bad_spec", "queue_full", "draining", "breaker_open",
// "not_found", "not_checkpointable", "migrate_failed") plus a human "error"
// message. 429 means transient backpressure on a healthy farm (retry the
// same instance soon); 503 with "draining" means this instance is going away
// (Retry-After hints when to look elsewhere); 503 with "breaker_open" means
// the farm is shedding load after a failure storm and will self-heal via
// admission probes.
//
// SIGTERM/SIGINT stops admission and drains every queued and running VM to
// completion, then exits 0. With -checkpoint-drain DIR the drain instead
// preempts in-flight jobs into snapshot envelopes written to DIR (one
// <jobid>.cmssnap each), ready to POST to another instance's /v1/restore.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cms/internal/cms"
	"cms/internal/farm"
)

// server wires the farm to the HTTP API.
type server struct {
	farm *farm.Farm
}

func (s *server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.submitJob)
	mux.HandleFunc("GET /v1/jobs", s.listJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.getJob)
	mux.HandleFunc("POST /v1/jobs/{id}/snapshot", s.snapshotJob)
	mux.HandleFunc("POST /v1/restore", s.restoreJob)
	mux.HandleFunc("POST /v1/migrate", s.migrateJob)
	mux.HandleFunc("GET /metrics", s.metrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", s.ready)
	return mux
}

// ready is the load-balancer signal: /healthz says the process is alive,
// /readyz says it will actually accept a job right now. Draining and an open
// circuit breaker both fail readiness so new traffic routes elsewhere while
// in-flight jobs finish (degraded mode).
func (s *server) ready(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.farm.Draining():
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, codeDraining, farm.ErrDraining.Error())
	case s.farm.Stats().BreakerOpen:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, codeBreakerOpen, farm.ErrBreakerOpen.Error())
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ready")
	}
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Machine-readable error codes carried in every 4xx/5xx body, so clients
// branch on "code" instead of parsing human-facing messages.
const (
	codeBadJSON     = "bad_json"
	codeBadSpec     = "bad_spec"
	codeQueueFull   = "queue_full"
	codeDraining    = "draining"
	codeBreakerOpen = "breaker_open"
	codeNotFound    = "not_found"
	// codeNotCheckpointable: the job reached a terminal state before the
	// checkpoint request landed (or does not exist as a preemptible job).
	codeNotCheckpointable = "not_checkpointable"
	// codeMigrateFailed: the local checkpoint succeeded but the target
	// instance refused or failed the restore; the snapshot is still held
	// locally and retrievable via POST /v1/jobs/{id}/snapshot.
	codeMigrateFailed = "migrate_failed"
)

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, map[string]string{"code": code, "error": msg})
}

// decodeBody strictly decodes a request body holding exactly one JSON
// object into v. An unknown field, data after the object, or a body over
// maxJobBody is an error, so a misspelled "deadline_ms" or a stale field
// is refused instead of silently dropped.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return errors.New("unexpected data after the JSON object")
	}
	return nil
}

func (s *server) submitJob(w http.ResponseWriter, r *http.Request) {
	var spec farm.JobSpec
	if err := decodeBody(w, r, &spec); err != nil {
		writeError(w, http.StatusBadRequest, codeBadJSON, "bad JSON: "+err.Error())
		return
	}
	v, err := s.farm.Submit(spec)
	s.writeAdmission(w, v, err)
}

// writeAdmission maps an admission outcome (Submit or SubmitRestore) to the
// HTTP response.
func (s *server) writeAdmission(w http.ResponseWriter, v farm.JobView, err error) {
	switch {
	case errors.Is(err, farm.ErrQueueFull):
		// Backpressure: the admission queue is bounded; tell the client to
		// come back rather than buffering unboundedly. 429, not 503: the
		// farm is healthy, the client is just ahead of it.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, codeQueueFull, err.Error())
	case errors.Is(err, farm.ErrDraining):
		// This instance is going away for good; point clients elsewhere.
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, codeDraining, err.Error())
	case errors.Is(err, farm.ErrBreakerOpen):
		// Degraded: shedding load after a failure storm. Self-heals via
		// probes, so a short Retry-After is honest.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, codeBreakerOpen, err.Error())
	case err != nil:
		writeError(w, http.StatusBadRequest, codeBadSpec, err.Error())
	default:
		writeJSON(w, http.StatusAccepted, v)
	}
}

// maxSnapshotBody bounds /v1/restore uploads. Snapshots are sparse (all-zero
// RAM pages are elided) so real envelopes are far smaller than guest RAM,
// but a hostile upload must not buffer unboundedly.
const maxSnapshotBody = 256 << 20

// maxJobBody bounds the JSON bodies of POST /v1/jobs and /v1/migrate. It is
// sized from the 2 MiB of guest RAM that a source job's assembled image must
// fit: at 4× guest RAM, even a `.db` listing that fills all of it (three to
// four bytes of JSON text per image byte) is admitted, while one request
// cannot make the daemon buffer more than 8 MiB.
const maxJobBody = 4 * (2 << 20)

// snapshotJob checkpoints a queued or running job at its next commit
// boundary and streams back the self-checking envelope. The job stays on
// this farm as "checkpointed" (the blob remains retrievable — the call is
// idempotent) until the process exits.
func (s *server) snapshotJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.farm.Job(id); !ok {
		writeError(w, http.StatusNotFound, codeNotFound, "no such job")
		return
	}
	v, blob, err := s.farm.Checkpoint(id)
	if err != nil {
		writeError(w, http.StatusConflict, codeNotCheckpointable, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-CMS-Job", v.ID)
	_, _ = w.Write(blob)
}

// restoreSpec builds the restore-job spec from query parameters: the
// capture's fault-injection identity (mandatory when it ran injected), plus
// optional budget and deadline overrides.
func restoreSpec(r *http.Request) (farm.JobSpec, error) {
	var spec farm.JobSpec
	q := r.URL.Query()
	for key, dst := range map[string]*uint64{"budget": &spec.Budget, "inject_seed": &spec.InjectSeed} {
		if v := q.Get(key); v != "" {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return spec, fmt.Errorf("bad %s: %v", key, err)
			}
			*dst = n
		}
	}
	if v := q.Get("deadline_ms"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return spec, fmt.Errorf("bad deadline_ms: %v", err)
		}
		spec.DeadlineMs = n
	}
	spec.ChaosPanics = q.Get("chaos_panics") == "true"
	return spec, nil
}

// restoreJob admits a job that resumes an uploaded snapshot envelope —
// the receiving half of a live migration.
func (s *server) restoreJob(w http.ResponseWriter, r *http.Request) {
	spec, err := restoreSpec(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadSpec, err.Error())
		return
	}
	blob, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSnapshotBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadJSON, "reading snapshot: "+err.Error())
		return
	}
	v, err := s.farm.SubmitRestore(blob, spec)
	s.writeAdmission(w, v, err)
}

// migrateJob moves one VM to another cmsserve instance: checkpoint locally,
// hand the envelope to the target's /v1/restore, report both job views. The
// restored run retires exactly the future the local one would have — the
// target's shared store only changes how fast it gets there.
func (s *server) migrateJob(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Job    string `json:"job"`
		Target string `json:"target"`
	}
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, codeBadJSON, "bad JSON: "+err.Error())
		return
	}
	if req.Job == "" || req.Target == "" {
		writeError(w, http.StatusBadRequest, codeBadSpec, "migrate needs job and target")
		return
	}
	if _, ok := s.farm.Job(req.Job); !ok {
		writeError(w, http.StatusNotFound, codeNotFound, "no such job")
		return
	}
	v, blob, err := s.farm.Checkpoint(req.Job)
	if err != nil {
		writeError(w, http.StatusConflict, codeNotCheckpointable, err.Error())
		return
	}
	q := url.Values{}
	if v.Spec.InjectSeed != 0 {
		q.Set("inject_seed", strconv.FormatUint(v.Spec.InjectSeed, 10))
		if v.Spec.ChaosPanics {
			q.Set("chaos_panics", "true")
		}
	}
	if v.Spec.DeadlineMs > 0 {
		q.Set("deadline_ms", strconv.FormatInt(v.Spec.DeadlineMs, 10))
	}
	target := strings.TrimSuffix(req.Target, "/") + "/v1/restore"
	if len(q) > 0 {
		target += "?" + q.Encode()
	}
	resp, err := http.Post(target, "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		writeError(w, http.StatusBadGateway, codeMigrateFailed, err.Error())
		return
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusAccepted {
		writeError(w, http.StatusBadGateway, codeMigrateFailed,
			fmt.Sprintf("target returned %d: %s", resp.StatusCode, body))
		return
	}
	var tv farm.JobView
	if err := json.Unmarshal(body, &tv); err != nil {
		writeError(w, http.StatusBadGateway, codeMigrateFailed, "target response: "+err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"source": v,
		"target": tv,
	})
}

func (s *server) listJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.farm.Jobs())
}

func (s *server) getJob(w http.ResponseWriter, r *http.Request) {
	v, ok := s.farm.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, codeNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *server) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	farm.WriteMetrics(w, s.farm)
}

func main() {
	addr := flag.String("addr", ":8086", "listen address")
	vms := flag.Int("vms", 4, "concurrent guest VMs")
	queue := flag.Int("queue", 64, "admission queue depth")
	storeAtoms := flag.Int("store-atoms", 0, "shared store budget in code atoms (0 = default)")
	pipeWorkers := flag.Int("pipeline-workers", 0, "translation pipeline workers per VM (0 = synchronous)")
	incidentDir := flag.String("incidents", "", "directory for replayable incident bundles (empty = disabled)")
	stormThreshold := flag.Uint("storm-threshold", 16, "rollback-storm quarantine threshold per shared artifact (0 = off)")
	drainDir := flag.String("checkpoint-drain", "", "on SIGTERM, checkpoint in-flight jobs into this directory instead of running them out")
	flag.Parse()

	cfg := cms.DefaultConfig()
	cfg.PipelineWorkers = *pipeWorkers
	cfg.RollbackStormThreshold = uint32(*stormThreshold)
	f := farm.New(farm.Config{
		MaxVMs:        *vms,
		QueueDepth:    *queue,
		StoreCapAtoms: *storeAtoms,
		Engine:        cfg,
		IncidentDir:   *incidentDir,
	})

	srv := &http.Server{Addr: *addr, Handler: (&server{farm: f}).routes()}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	done := make(chan struct{})
	go func() {
		<-sig
		log.Printf("cmsserve: draining (%d queued, %d active)...",
			f.Stats().Queued, f.Stats().Active)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx) // stop accepting HTTP, finish in-flight requests
		if *drainDir != "" {
			// Checkpoint-drain: preempt in-flight VMs into snapshot
			// envelopes instead of running them out, so a replacement
			// instance can resume them via /v1/restore.
			_ = os.MkdirAll(*drainDir, 0o755)
			views := f.CheckpointDrain()
			saved := 0
			for _, v := range views {
				blob, ok := f.Snapshot(v.ID)
				if !ok {
					continue
				}
				path := filepath.Join(*drainDir, v.ID+".cmssnap")
				if err := os.WriteFile(path, blob, 0o644); err != nil {
					log.Printf("cmsserve: writing %s: %v", path, err)
					continue
				}
				saved++
			}
			log.Printf("cmsserve: checkpoint-drain: %d snapshots written to %s", saved, *drainDir)
		} else {
			f.Drain() // run every admitted VM to completion
		}
		close(done)
	}()

	log.Printf("cmsserve: listening on %s (%d VMs, queue %d)", *addr, *vms, *queue)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-done
	st := f.Stats()
	log.Printf("cmsserve: drained: %d done, %d failed, %d timed out, %d checkpointed, %d incidents, dedup %.1f%%",
		st.Done, st.Failed, st.Timeouts, st.Checkpoints, st.Incidents, 100*st.Store.DedupRatio())
}
