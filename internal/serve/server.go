package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/cache"
	"repro/internal/content"
	"repro/internal/dashboard"
	"repro/internal/epvf"
	"repro/internal/inc"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/vm"
)

// moduleTag is the domain tag of the analysis content address: the
// sha256 of the module's canonical IR print under this tag keys both
// the summary and the golden-trace cache entries.
const moduleTag = "epvf-analysis-v1"

// MaxAnalyzeBodyBytes bounds a /v1/analyze request body (4 MiB). The
// largest built-in kernel's request is ~23 KB (srad at scale 2) and the
// largest serve-mix request ~19.5 KB (lulesh), so this leaves two
// orders of magnitude of headroom while keeping one request from pinning
// unbounded memory in the JSON decoder.
const MaxAnalyzeBodyBytes = 4 << 20

// Cache kinds the daemon stores results under.
const (
	KindSummary  = "summary"
	KindTrace    = "trace"
	KindCampaign = "campaign"
	KindAttr     = "attr"
)

// ModuleHash returns the content address of a module: the hash of its
// canonical IR print. Clients and daemon agree on this key because both
// reprint the parsed module before hashing.
func ModuleHash(m *ir.Module) string {
	return content.Hash(moduleTag, []byte(ir.Print(m)))
}

// Config describes a daemon.
type Config struct {
	// Addr is the listen address (host:port; :0 picks a free port).
	Addr string
	// CacheDir is the disk spill tier's directory; empty keeps results
	// in memory only (they die with the process).
	CacheDir string
	// CacheMemBytes bounds the memory tier; zero means the cache
	// default.
	CacheMemBytes int64
	// Registry receives the epvf_serve_* and epvf_cache_* metrics; nil
	// creates a private one.
	Registry *obs.Registry
	// Tracer, when non-nil, records a handling span per request and
	// returns it to the caller (in the analyze reply, or the X-Epvf-Span
	// header for blob endpoints) so clients can stitch the daemon's work
	// into their own traces. Long-lived daemons should SetRetain on it.
	Tracer *obs.Tracer
	// Incremental enables the incremental analysis tier: below the
	// summary cache, analyses compose from per-function section profiles
	// (internal/inc) stored in the same cache, so an edit to one
	// function re-walks only that function's section.
	Incremental bool
}

// Server is the analysis daemon: one obs.Server carrying /metrics,
// /healthz, pprof and the /v1 analysis endpoints, backed by one
// content-addressed store.
type Server struct {
	reg         *obs.Registry
	obs         *obs.Server
	store       *cache.Store
	tracer      *obs.Tracer
	incremental bool
	dash        *dashboard.Mounted
}

// New binds the address and prepares the cache, but does not serve
// until Start.
func New(cfg Config) (*Server, error) {
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	store, err := cache.Open(cache.Config{
		Dir:      cfg.CacheDir,
		MemBytes: cfg.CacheMemBytes,
		Registry: reg,
	})
	if err != nil {
		return nil, err
	}
	osrv, err := obs.NewServer(cfg.Addr, reg)
	if err != nil {
		return nil, err
	}
	// Compiled VM bytecode (vm-code-v1 entries) shares the daemon's
	// store, so repeated analyses of the same module skip recompilation.
	vm.SetDefaultCache(store)
	s := &Server{reg: reg, obs: osrv, store: store, tracer: cfg.Tracer, incremental: cfg.Incremental}
	osrv.Handle("/v1/analyze", http.HandlerFunc(s.handleAnalyze))
	osrv.Handle("/v1/campaign/log", s.blobHandler(KindCampaign))
	osrv.Handle("/v1/attr/snapshot", s.blobHandler(KindAttr))
	osrv.AddHealth("cache", func() any { return store.Stats() })
	// The live telemetry layer — /ts, /events, /alerts, /dashboard —
	// rides the same listener; alert firings capture pprof bundles into
	// the daemon's own store (kind obs-profile-v1).
	s.dash = dashboard.Mount(osrv, dashboard.Config{
		Registry: reg,
		Title:    "epvf analysis daemon",
		Profiles: store,
	})
	return s, nil
}

// Obs exposes the underlying observability server so callers can mount
// additional handlers (the campaign coordinator, /attr views) on the
// same listener.
func (s *Server) Obs() *obs.Server { return s.obs }

// Store exposes the daemon's result store (the experiments suite and
// tests put campaign logs in directly).
func (s *Server) Store() *cache.Store { return s.store }

// Addr returns the bound address.
func (s *Server) Addr() string { return s.obs.Addr() }

// Start serves in a background goroutine until Shutdown.
func (s *Server) Start() { s.obs.Start() }

// Shutdown drains gracefully: in-flight analyses finish (their results
// land in the disk tier for the next process) before the listener
// closes, or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.dash.Stop()
	return s.obs.Shutdown(ctx)
}

func (s *Server) countRequest(endpoint, outcome string) {
	s.reg.Counter("epvf_serve_requests_total", "endpoint", endpoint, "outcome", outcome).Inc()
}

// observeStage records one request's end-to-end latency into the
// per-cache-stage histogram: which tier answered (summary-cache,
// trace-cache, computed, or a blob kind) and how the request ended.
func (s *Server) observeStage(stage, outcome string, start time.Time) {
	s.reg.Histogram("epvf_cache_stage_latency_seconds", obs.LatencyBuckets,
		"stage", stage, "outcome", outcome).Observe(time.Since(start).Seconds())
}

// startSpan opens a handling span for one request, parented under the
// caller's span when the request carries a Traceparent header — the
// cross-process edge that stitches daemon work into client traces. Nil
// when the daemon runs without a tracer.
func (s *Server) startSpan(name string, req *http.Request) *obs.Span {
	if s.tracer == nil {
		return nil
	}
	if pctx, ok := obs.ExtractTraceHeader(req.Header); ok {
		return s.tracer.StartRemote(name, pctx)
	}
	return s.tracer.Start(name)
}

// spanHeader ends sp and stamps its JSON-encoded record on the response
// headers (blob endpoints; the analyze endpoint embeds spans in its
// JSON reply instead).
func spanHeader(w http.ResponseWriter, sp *obs.Span) {
	if sp == nil {
		return
	}
	if b, err := json.Marshal(sp.EndRecord()); err == nil {
		w.Header().Set(SpanHeader, string(b))
	}
}

// handleAnalyze is POST /v1/analyze: parse the module, address it by
// content, and satisfy the request from the cheapest available stage —
// cached summary, cached golden trace (models re-run), or a full
// profile + analysis. Concurrent requests for the same module share one
// computation via the store's singleflight.
func (s *Server) handleAnalyze(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	t0 := time.Now()
	sp := s.startSpan("analyze", req)
	var areq AnalyzeRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, MaxAnalyzeBodyBytes)).Decode(&areq); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		sp.End()
		s.countRequest("analyze", "bad_request")
		s.observeStage(StageUnresolved, "bad_request", t0)
		w.Header().Set(StageHeader, StageUnresolved)
		http.Error(w, fmt.Sprintf("decode request: %v", err), status)
		return
	}
	m, err := ir.Parse(areq.IR)
	if err == nil && len(m.Funcs) == 0 {
		err = fmt.Errorf("empty module")
	}
	if err != nil {
		sp.End()
		s.countRequest("analyze", "bad_request")
		s.observeStage(StageUnresolved, "bad_request", t0)
		w.Header().Set(StageHeader, StageUnresolved)
		http.Error(w, fmt.Sprintf("parse IR: %v", err), http.StatusBadRequest)
		return
	}
	modHash := ModuleHash(m)

	// stage is set by this request's fill closure; when another
	// goroutine's flight (or the cache itself) supplied the bytes, it
	// stays empty and the result counts as a summary-cache hit.
	stage := ""
	var sections *SectionStats
	data, hit, err := s.store.GetOrFill(KindSummary, modHash, func() ([]byte, error) {
		sum, st, secs, err := s.analyze(m, modHash)
		if err != nil {
			return nil, err
		}
		stage, sections = st, secs
		return json.Marshal(sum)
	})
	if err != nil {
		sp.End()
		s.countRequest("analyze", "error")
		s.observeStage(StageUnresolved, "error", t0)
		w.Header().Set(StageHeader, StageUnresolved)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if hit || stage == "" {
		stage, sections = StageSummary, nil
	}
	var sum Summary
	if err := json.Unmarshal(data, &sum); err != nil {
		sp.End()
		s.countRequest("analyze", "error")
		s.observeStage(stage, "error", t0)
		w.Header().Set(StageHeader, stage)
		http.Error(w, fmt.Sprintf("decode cached summary: %v", err), http.StatusInternalServerError)
		return
	}
	s.countRequest("analyze", stage)
	s.observeStage(stage, "ok", t0)
	reply := AnalyzeReply{
		ModuleHash: modHash,
		Stage:      stage,
		CacheHit:   stage != StageComputed,
		Summary:    &sum,
		Sections:   sections,
	}
	if sp != nil {
		sp.Add("cache_hit", boolCounter(reply.CacheHit))
		reply.Spans = []obs.SpanRecord{sp.EndRecord()}
	}
	w.Header().Set(StageHeader, stage)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(reply)
}

func boolCounter(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// analyze computes a summary from the cheapest stage below the summary
// cache. With the incremental tier enabled, the module is re-profiled
// (from the cached golden trace when available) and the models compose
// from per-function section profiles — after an edit to one function,
// only that function's walks re-run. Otherwise: a cached golden trace if
// present (only the models re-run), else a full profiled analysis whose
// trace is written back for next time.
func (s *Server) analyze(m *ir.Module, modHash string) (*Summary, string, *SectionStats, error) {
	if raw, ok := s.store.Get(KindTrace, modHash); ok {
		tr, err := trace.Load(bytes.NewReader(raw), m)
		if err == nil {
			if s.incremental {
				return s.analyzeIncremental(m, tr, StageTrace)
			}
			a := epvf.AnalyzeTrace(tr, epvf.Config{})
			return Summarize(m.Name, a, tr.NumEvents()), StageTrace, nil, nil
		}
		// A trace that fails to decode against its own module is a
		// corrupt entry the framing checks missed; fall through to a
		// full run that overwrites it.
	}
	if s.incremental {
		res, err := epvf.RunProfile(m, interp.Config{})
		if err != nil {
			return nil, "", nil, err
		}
		s.saveTrace(res.Trace, modHash)
		return s.analyzeIncremental(m, res.Trace, StageComputed)
	}
	a, golden, err := epvf.AnalyzeModule(m, epvf.Config{})
	if err != nil {
		return nil, "", nil, err
	}
	s.saveTrace(a.Trace, modHash)
	return Summarize(m.Name, a, golden.DynInstrs), StageComputed, nil, nil
}

// analyzeIncremental composes the analysis from cached + fresh section
// profiles. The stage reports StageIncremental when any section was
// reused; otherwise fallbackStage tells the truth about where the work
// happened (trace-cache when the trace was reused, computed for a cold
// module).
func (s *Server) analyzeIncremental(m *ir.Module, tr *trace.Trace, fallbackStage string) (*Summary, string, *SectionStats, error) {
	r, err := inc.AnalyzeTrace(tr, inc.Config{Store: s.store, Registry: s.reg})
	if err != nil {
		return nil, "", nil, err
	}
	stage := fallbackStage
	if r.Stats.Reused > 0 {
		stage = StageIncremental
	}
	secs := &SectionStats{
		Total:           len(r.Stats.Sections),
		Reused:          r.Stats.Reused,
		Recomputed:      r.Stats.Recomputed,
		RecomputedNames: r.Stats.RecomputedNames(),
	}
	return Summarize(m.Name, r.Analysis, r.DynInstrs), stage, secs, nil
}

// saveTrace writes the golden trace back for the next analysis of the
// same module (best effort — a failed save only costs future speed).
func (s *Server) saveTrace(tr *trace.Trace, modHash string) {
	var buf bytes.Buffer
	if err := tr.Save(&buf); err == nil {
		s.store.Put(KindTrace, modHash, buf.Bytes())
	}
}

// blobHandler serves GET/PUT of opaque byte artifacts (campaign logs,
// attribution snapshots) keyed by ?plan=<content hash>.
func (s *Server) blobHandler(kind string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		plan := req.URL.Query().Get("plan")
		if plan == "" {
			s.countRequest(kind, "bad_request")
			http.Error(w, "missing ?plan=<hash>", http.StatusBadRequest)
			return
		}
		t0 := time.Now()
		switch req.Method {
		case http.MethodGet:
			sp := s.startSpan("get "+kind, req)
			data, ok := s.store.Get(kind, plan)
			if !ok {
				sp.End()
				s.countRequest(kind, "miss")
				s.observeStage(kind, "miss", t0)
				http.Error(w, fmt.Sprintf("no cached %s for plan %s", kind, plan), http.StatusNotFound)
				return
			}
			s.countRequest(kind, "hit")
			s.observeStage(kind, "hit", t0)
			spanHeader(w, sp)
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("Content-Length", strconv.Itoa(len(data)))
			w.Write(data)
		case http.MethodPut, http.MethodPost:
			sp := s.startSpan("put "+kind, req)
			data, err := io.ReadAll(req.Body)
			if err != nil {
				sp.End()
				s.countRequest(kind, "error")
				s.observeStage(kind, "error", t0)
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if err := s.store.Put(kind, plan, data); err != nil {
				sp.End()
				s.countRequest(kind, "bad_request")
				s.observeStage(kind, "bad_request", t0)
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			s.countRequest(kind, "put")
			s.observeStage(kind, "put", t0)
			spanHeader(w, sp)
			w.WriteHeader(http.StatusNoContent)
		default:
			http.Error(w, "GET or PUT only", http.StatusMethodNotAllowed)
		}
	})
}
