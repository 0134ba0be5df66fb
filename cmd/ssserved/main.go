// Command ssserved hosts the sharded supervised endsystem as a long-running
// service: a ctlplane.Engine stepped on demand — an epoch runs as soon as an
// admin request is queued and the previous fence has closed, at most one a
// millisecond, and -epoch-ms is only the idle heartbeat between requests —
// with an HTTP admin API for live mutation — admit and evict streams, retune
// attribute specs, switch a slot's rank program, resize a shard's shared
// buffer pool, drain and restart shards — layered on the observability
// endpoint (JSON /metrics plus pprof).
//
// Every admin request is handed to the engine goroutine over a bounded
// queue (a full queue answers 429 with Retry-After) and applies at the next
// epoch fence, together with every other request that arrived while the
// previous epoch ran; the handler blocks until its response comes back from
// the fence, so a 200 means the mutation is live (and a 409 carries the
// control plane's deterministic error string). The full transition journal
// streams to -journal under the -sync durability policy — under fence, one
// fsync per epoch, after the step and before any of its responses is
// released — and on shutdown (SIGINT/SIGTERM or POST /admin/shutdown) the
// daemon answers what is queued, pauses traffic, runs the backlog out,
// prints the final conservation ledger as JSON on stdout, and exits 0 only
// if the books close: offered == delivered + dropped + evicted with nothing
// in flight and zero epoch violations.
//
// Crash recovery: with -recover, the daemon replays the -journal file at
// boot — the control plane is reconstructed by deterministic re-execution,
// the file is truncated to its committed prefix (a kill -9 tears the final
// write; see DESIGN.md §12), and journaling resumes in append mode. The
// HTTP endpoint is up during replay in degraded mode: admin routes answer
// 503 with Retry-After, and GET /admin/recovery reports progress, seeded
// from the journal's latest checkpoint before a single epoch re-executes.
//
// Admin API (all mutations are POST; parameters are query params):
//
//	POST /admin/admit?id=N&class=edf|wc|static|fair&...   admit a stream
//	POST /admin/evict?id=N                                evict, drain its ring
//	POST /admin/retune?id=N&class=...&...                 retune (same class)
//	POST /admin/program?id=N&program=dwcs|tag-only|stfq   switch rank program
//	POST /admin/pool?shard=K&burst=B                      resize shared pool
//	POST /admin/drain?shard=K                             quiesce a shard
//	POST /admin/restart?shard=K                           resume a shard
//	POST /admin/offering?frames=N                         offered load per slot
//	POST /admin/shutdown                                  graceful exit
//	GET  /admin/ledger                                    conservation snapshot
//	GET  /admin/recovery                                  recovery state
//
// Spec parameters per class: edf takes period; wc takes period, num, den;
// static takes priority and optional guard; fair takes weight.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/attr"
	"repro/internal/ctlplane"
	"repro/internal/decision"
	"repro/internal/endsystem"
	"repro/internal/obs"
	"repro/internal/qm"
	"repro/internal/shard"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:0", "listen address for the admin/metrics endpoint")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening (for test harnesses)")
	shards := flag.Int("shards", 4, "scheduler shard count")
	slots := flag.Int("slots", 16, "stream-slots per shard")
	program := flag.String("program", "dwcs", "initial rank program for every shard")
	policy := flag.String("policy", "drop-oldest", "overload policy: drop-oldest or reject-new")
	epochMs := flag.Int("epoch-ms", 5, "idle heartbeat: the longest the engine waits between epochs, in milliseconds (a queued request steps it at once, epochs at least 1 ms apart)")
	cycles := flag.Int("cycles", 128, "decision cycles per shard per epoch")
	frames := flag.Int("frames", 1, "frames offered per occupied slot per epoch")
	journalPath := flag.String("journal", "", "stream the control-plane transition journal to this file")
	ckpt := flag.Int("ckpt", 0, "journal checkpoint cadence in epoch fences (0: control-plane default; negative: disabled)")
	recoverJournal := flag.Bool("recover", false, "replay the -journal file at boot and resume from its committed prefix")
	syncMode := flag.String("sync", "fence", "journal durability: none (OS buffering), fence (fsync at each epoch fence), line (fsync every line)")
	strict := flag.Bool("journal-strict", false, "treat any journal sink write loss as fatal: settle and exit non-zero")
	flag.Parse()
	if err := serve(*addr, *addrFile, *journalPath, serveConfig{
		shards: *shards, slots: *slots, program: *program, policy: *policy,
		epochMs: *epochMs, cycles: *cycles, frames: *frames, ckpt: *ckpt,
		recover: *recoverJournal, sync: *syncMode, strict: *strict,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "ssserved: %v\n", err)
		os.Exit(1)
	}
}

type serveConfig struct {
	shards, slots                 int
	program, policy               string
	epochMs, cycles, frames, ckpt int
	recover                       bool
	sync                          string
	strict                        bool
}

// submitQueueCap bounds the hand-off from admin handlers to the engine
// goroutine: the most requests one fence can cover, and so the most a slow
// epoch can leave waiting. A request that finds the queue full is refused
// with 429 rather than parked.
const submitQueueCap = 256

// ackTimeout is how long a handler waits for its fence answer.
const ackTimeout = 30 * time.Second

// minEpochGap is the closest together two epochs may start: the 1 ms floor
// -epoch-ms has always enforced, kept as the ceiling on demand stepping.
// Requests set the phase of the epochs, not their rate — a request that
// arrives inside the gap shares the next fence with every other one that
// does — so what the datapath carries per second is paced by a timer, as
// it was under the ticker, and not by how fast this machine steps and
// fsyncs at the moment.
const minEpochGap = time.Millisecond

// cohortWait bounds how long after a fence the loop holds the next one
// open for the clients that fence answered: see engineLoop.
const cohortWait = 500 * time.Microsecond

// submission is one admin request in flight to the engine goroutine; the
// response channel is buffered so the engine never blocks on a departed
// client.
type submission struct {
	req  ctlplane.Request
	resp chan ctlplane.Response
	at   time.Time // when the handler queued it
}

// plane is the control plane once it exists: the engine and the durable
// copy of its journal (nil without -journal).
type plane struct {
	eng  *ctlplane.Engine
	sink *journalSink
}

// sinkErrors is the journal's durability loss: lines the sink failed to
// take plus fence fsyncs that failed.
func (p *plane) sinkErrors() uint64 { return p.eng.SinkErrors() + p.sink.syncErrors() }

// adminAPI is the HTTP side of the daemon. The engine goroutine owns the
// engine exclusively: handlers hand it requests over submit and wait for
// the fence to answer. Shutdown is a context cancel — from a signal or the
// /admin/shutdown route.
type adminAPI struct {
	ctx     context.Context
	stop    func()
	reg     *obs.Registry
	latency *obs.Histogram

	submit chan submission
	offer  chan int
	// settled is closed when the engine loop has exited: a request still
	// unanswered then was queued behind the loop's last drain and never
	// reached a fence.
	settled chan struct{}

	// The engine does not exist until recovery finishes; handlers reach it
	// through this pointer, stored last. Until then the HTTP endpoint is up
	// in degraded mode: admin routes answer 503 with Retry-After, and
	// /admin/recovery reports progress.
	plane    atomic.Pointer[plane]
	recovery atomic.Pointer[map[string]any]
}

func newAdminAPI(ctx context.Context, stop func(), reg *obs.Registry, queueCap int) *adminAPI {
	a := &adminAPI{
		ctx: ctx, stop: stop, reg: reg,
		latency: reg.Histogram("ssserved.admin_latency", "ns"),
		// Sized to the fence's batch bound, not to a sender count: see
		// submitQueueCap.
		submit:  make(chan submission, queueCap),
		offer:   make(chan int),
		settled: make(chan struct{}),
	}
	a.recovery.Store(&map[string]any{"state": "starting"})
	return a
}

// degraded answers for the recovery window and reports whether the caller
// should return (the daemon is not ready to serve).
func (a *adminAPI) degraded(w http.ResponseWriter) bool {
	if a.plane.Load() != nil {
		return false
	}
	w.Header().Set("Retry-After", "1")
	httpError(w, http.StatusServiceUnavailable, "recovering: journal replay in progress")
	return true
}

// mutation serves one fence-applied route: parse, queue without blocking,
// wait for the fence.
func (a *adminAPI) mutation(parse func(url.Values) (ctlplane.Request, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := obs.WallClock()
		defer func() { a.latency.Observe(obs.WallClock() - start) }()
		if a.degraded(w) {
			return
		}
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		req, err := parse(r.URL.Query())
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		if a.ctx.Err() != nil {
			httpError(w, http.StatusServiceUnavailable, "shutting down")
			return
		}
		sub := submission{req: req, resp: make(chan ctlplane.Response, 1), at: time.Now()}
		select {
		case a.submit <- sub:
		default:
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests,
				fmt.Sprintf("control queue full: %d requests are waiting for the next fence", cap(a.submit)))
			return
		}
		// One timer per request, stopped on the way out: a time.After here
		// would stay live for its full 30 s under go 1.22 timer semantics,
		// and daemon memory would scale with request rate × 30 s.
		timeout := time.NewTimer(ackTimeout)
		defer timeout.Stop()
		select {
		case resp := <-sub.resp:
			writeResponse(w, resp)
		case <-a.settled:
			// The loop releases its last fence before it exits, so an
			// answer, if one was coming, is already buffered.
			select {
			case resp := <-sub.resp:
				writeResponse(w, resp)
			default:
				httpError(w, http.StatusServiceUnavailable, "shutting down")
			}
		case <-timeout.C:
			httpError(w, http.StatusGatewayTimeout, fmt.Sprintf("no epoch fence within %s", ackTimeout))
		case <-r.Context().Done(): // the client left; nobody to answer
		}
	}
}

func writeResponse(w http.ResponseWriter, resp ctlplane.Response) {
	code := http.StatusOK
	if !resp.OK() {
		code = http.StatusConflict
	}
	writeJSON(w, code, resp)
}

// mux mounts the admin routes on the observability endpoint.
func (a *adminAPI) mux() *http.ServeMux {
	mux := obs.NewMux(a.reg)
	admin := func(route string, parse func(url.Values) (ctlplane.Request, error)) {
		mux.HandleFunc("/admin/"+route, a.mutation(parse))
	}
	admin("admit", func(q url.Values) (ctlplane.Request, error) {
		id, err := streamParam(q)
		if err != nil {
			return ctlplane.Request{}, err
		}
		spec, err := parseSpec(q)
		if err != nil {
			return ctlplane.Request{}, err
		}
		return ctlplane.Request{Op: ctlplane.OpAdmit, Stream: id, Spec: spec}, nil
	})
	admin("evict", func(q url.Values) (ctlplane.Request, error) {
		id, err := streamParam(q)
		return ctlplane.Request{Op: ctlplane.OpEvict, Stream: id}, err
	})
	admin("retune", func(q url.Values) (ctlplane.Request, error) {
		id, err := streamParam(q)
		if err != nil {
			return ctlplane.Request{}, err
		}
		spec, err := parseSpec(q)
		if err != nil {
			return ctlplane.Request{}, err
		}
		return ctlplane.Request{Op: ctlplane.OpRetune, Stream: id, Spec: spec}, nil
	})
	admin("program", func(q url.Values) (ctlplane.Request, error) {
		id, err := streamParam(q)
		if err != nil {
			return ctlplane.Request{}, err
		}
		p, err := decision.ParseProgram(q.Get("program"))
		if err != nil {
			return ctlplane.Request{}, err
		}
		return ctlplane.Request{Op: ctlplane.OpSetProgram, Stream: id, Program: p}, nil
	})
	admin("pool", func(q url.Values) (ctlplane.Request, error) {
		k, err := intParam(q, "shard")
		if err != nil {
			return ctlplane.Request{}, err
		}
		burst, err := intParam(q, "burst")
		if err != nil {
			return ctlplane.Request{}, err
		}
		return ctlplane.Request{Op: ctlplane.OpResizePool, Shard: k, Burst: burst}, nil
	})
	admin("drain", func(q url.Values) (ctlplane.Request, error) {
		k, err := intParam(q, "shard")
		return ctlplane.Request{Op: ctlplane.OpDrainShard, Shard: k}, err
	})
	admin("restart", func(q url.Values) (ctlplane.Request, error) {
		k, err := intParam(q, "shard")
		return ctlplane.Request{Op: ctlplane.OpRestartShard, Shard: k}, err
	})
	mux.HandleFunc("/admin/offering", func(w http.ResponseWriter, r *http.Request) {
		if a.degraded(w) {
			return
		}
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		n, err := intParam(r.URL.Query(), "frames")
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		select {
		case a.offer <- n:
			writeJSON(w, http.StatusOK, map[string]int{"frames": n})
		case <-a.ctx.Done():
			httpError(w, http.StatusServiceUnavailable, "shutting down")
		}
	})
	mux.HandleFunc("/admin/ledger", func(w http.ResponseWriter, r *http.Request) {
		if a.degraded(w) {
			return
		}
		p := a.plane.Load()
		led := p.eng.Ledger() // atomic snapshot from the last fence: any-goroutine safe
		writeJSON(w, http.StatusOK, p.ledgerDoc(led))
	})
	mux.HandleFunc("/admin/recovery", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, *a.recovery.Load())
	})
	mux.HandleFunc("/admin/shutdown", func(w http.ResponseWriter, r *http.Request) {
		if a.degraded(w) {
			return
		}
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "shutting down"})
		a.stop()
	})
	return mux
}

func serve(addr, addrFile, journalPath string, cfg serveConfig) error {
	prog, err := decision.ParseProgram(cfg.program)
	if err != nil {
		return err
	}
	var pol qm.Policy
	switch cfg.policy {
	case "drop-oldest":
		pol = qm.DropOldest
	case "reject-new":
		pol = qm.RejectNew
	default:
		return fmt.Errorf("-policy %q: want drop-oldest or reject-new", cfg.policy)
	}
	if cfg.epochMs < 1 {
		return fmt.Errorf("-epoch-ms %d: want >= 1", cfg.epochMs)
	}
	sync, err := parseSyncPolicy(cfg.sync)
	if err != nil {
		return err
	}
	if cfg.recover && journalPath == "" {
		return fmt.Errorf("-recover needs -journal: there is nothing to replay")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	reg := obs.NewRegistry()
	api := newAdminAPI(ctx, stop, reg, submitQueueCap)

	bound, shutdownHTTP, err := obs.ServeHandler(addr, api.mux())
	if err != nil {
		return err
	}
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(bound+"\n"), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "ssserved: %d shards × %d slots, program %s, policy %s; admin on http://%s/admin/, metrics on /metrics\n",
		cfg.shards, cfg.slots, prog, pol, bound)

	// Build or recover the engine while the endpoint answers degraded.
	eng, rep, sink, err := openEngine(journalPath, sync, cfg, prog, pol, &api.recovery)
	if err != nil {
		httpCtx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = shutdownHTTP(httpCtx)
		return err
	}
	defer sink.Close()
	eng.RegisterMetrics(reg, "ctl")
	eng.Router().RegisterMetrics(reg, "shard")
	reg.GaugeFunc("ssserved.recovery.replayed_epochs", "epochs", func() float64 {
		if rep == nil {
			return 0
		}
		return float64(rep.Epochs)
	})
	reg.GaugeFunc("ssserved.recovery.torn_bytes", "bytes", func() float64 {
		if rep == nil {
			return 0
		}
		return float64(rep.TornBytes)
	})
	api.recovery.Store(&map[string]any{"state": "serving", "recovered": recoveredDoc(rep)})
	pl := &plane{eng: eng, sink: sink}
	api.plane.Store(pl)
	if rep != nil {
		fmt.Fprintf(os.Stderr, "ssserved: recovered %d epochs from %s (%d bytes committed, %d torn)\n",
			rep.Epochs, journalPath, rep.CommittedBytes, rep.TornBytes)
	}

	loop := engineLoop{
		eng: eng, sink: sink, heartbeat: time.Duration(cfg.epochMs) * time.Millisecond,
		gap: minEpochGap, cohortWait: cohortWait,
		submit: api.submit, offer: api.offer, quit: ctx.Done(), settled: api.settled,
		// After each fence the loop consults the sink watchdog: under
		// -journal-strict the first lost journal line or failed fsync
		// settles and exits.
		watchdog: func() {
			if cfg.strict && pl.sinkErrors() > 0 {
				stop()
			}
		},
	}
	go loop.run()

	<-ctx.Done()
	stop() // restore default signal handling: a second ^C kills hard
	fmt.Fprintln(os.Stderr, "ssserved: shutting down, settling the pipelines")
	httpCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = shutdownHTTP(httpCtx)
	<-api.settled
	final := loop.final

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(pl.ledgerDoc(final)); err != nil {
		return err
	}
	if !final.Balanced() || final.InFlight != 0 || eng.Violations() != 0 {
		return fmt.Errorf("conservation did not close: %d violations, %d in flight",
			eng.Violations(), final.InFlight)
	}
	if cfg.strict && pl.sinkErrors() > 0 {
		return fmt.Errorf("journal sink lost %d lines or fence syncs (-journal-strict)", pl.sinkErrors())
	}
	return nil
}

// openEngine builds the control plane: a fresh engine journaling to
// journalPath, or — under -recover, when the file holds a journal — one
// reconstructed by replaying it, with the file truncated to its committed
// prefix and reattached in append mode under the -sync policy. The replay
// report is nil on a fresh start, the sink nil without a journal file.
func openEngine(journalPath string, sync syncPolicy, cfg serveConfig, prog decision.Program, pol qm.Policy,
	recovery *atomic.Pointer[map[string]any]) (*ctlplane.Engine, *ctlplane.ReplayReport, *journalSink, error) {
	fresh := func(sink *journalSink) (*ctlplane.Engine, *ctlplane.ReplayReport, *journalSink, error) {
		var journal io.Writer
		if sink != nil {
			journal = sink
		}
		eng, err := endsystem.NewService(endsystem.ServiceConfig{
			Shards:          cfg.shards,
			SlotsPerShard:   cfg.slots,
			Program:         prog,
			Policy:          pol,
			CyclesPerEpoch:  cfg.cycles,
			FramesPerStream: cfg.frames,
			CheckpointEvery: cfg.ckpt,
			Journal:         journal,
		})
		if err != nil {
			sink.Close()
			return nil, nil, nil, err
		}
		return eng, nil, sink, nil
	}

	if journalPath == "" {
		return fresh(nil)
	}
	if cfg.recover {
		if st, err := os.Stat(journalPath); err == nil && st.Size() > 0 {
			return recoverEngine(journalPath, sync, recovery)
		}
		// Nothing survived to replay; start fresh below.
		fmt.Fprintf(os.Stderr, "ssserved: -recover: %s is missing or empty, starting fresh\n", journalPath)
	}
	f, err := os.Create(journalPath)
	if err != nil {
		return nil, nil, nil, err
	}
	return fresh(&journalSink{f: f, policy: sync})
}

// recoverEngine replays journalPath into a fresh engine. Before the replay
// proper it scans for the latest checkpoint — bounded-time state the
// /admin/recovery endpoint reports while re-execution runs.
func recoverEngine(journalPath string, sync syncPolicy,
	recovery *atomic.Pointer[map[string]any]) (*ctlplane.Engine, *ctlplane.ReplayReport, *journalSink, error) {
	f, err := os.Open(journalPath)
	if err != nil {
		return nil, nil, nil, err
	}
	defer f.Close()

	doc := map[string]any{"state": "replaying", "journal": journalPath}
	if ck, ok, err := ctlplane.LatestCheckpoint(f); err == nil && ok {
		doc["checkpoint"] = map[string]any{
			"epoch": ck.Epoch, "seq": ck.Seq, "streams": len(ck.Streams),
		}
	}
	recovery.Store(&doc)

	if _, err := f.Seek(0, 0); err != nil {
		return nil, nil, nil, err
	}
	eng, rep, err := ctlplane.Replay(f)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("recover %s: %w", journalPath, err)
	}

	// Drop the torn tail and any uncommitted block from the durable copy,
	// then resume journaling where the committed prefix ends.
	if err := os.Truncate(journalPath, rep.CommittedBytes); err != nil {
		return nil, nil, nil, err
	}
	af, err := os.OpenFile(journalPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, nil, err
	}
	sink := &journalSink{f: af, policy: sync}
	eng.SetJournalSink(sink)
	return eng, rep, sink, nil
}

// recoveredDoc summarizes a replay report for /admin/recovery (nil on a
// fresh start).
func recoveredDoc(rep *ctlplane.ReplayReport) any {
	if rep == nil {
		return nil
	}
	return map[string]any{
		"epochs":          rep.Epochs,
		"requests":        rep.Requests,
		"checkpoints":     rep.Checkpoints,
		"committed_bytes": rep.CommittedBytes,
		"torn_bytes":      rep.TornBytes,
		"dropped_lines":   rep.DroppedLines,
	}
}

// syncPolicy selects when the journal file is fsynced.
type syncPolicy uint8

const (
	// syncNone leaves durability to the OS page cache.
	syncNone syncPolicy = iota
	// syncFence fsyncs once per epoch, at the engine loop's commit point:
	// after the step has written the whole epoch block and before any of
	// the fence's responses unblock — the durability-before-ack contract.
	syncFence
	// syncLine fsyncs every journal line.
	syncLine
)

func parseSyncPolicy(name string) (syncPolicy, error) {
	switch name {
	case "none":
		return syncNone, nil
	case "fence":
		return syncFence, nil
	case "line":
		return syncLine, nil
	default:
		return 0, fmt.Errorf("-sync %q: want none, fence, or line", name)
	}
}

// journalFile is what the sink needs of an *os.File; tests substitute one
// whose Sync blocks or fails.
type journalFile interface {
	io.WriteCloser
	Sync() error
}

// journalSink is the durable copy of the journal under a sync policy. Lines
// are written through as the engine produces them (each Write is exactly
// one line), so the engine's SinkErrors keeps counting write losses; when
// they become durable is the policy's business, and under fence it is the
// engine loop's commit call. A nil sink (no -journal) is valid and does
// nothing.
type journalSink struct {
	f        journalFile
	policy   syncPolicy
	syncErrs atomic.Uint64 // failed fence fsyncs; read by ledger scrapes
}

func (s *journalSink) Write(p []byte) (int, error) {
	n, err := s.f.Write(p)
	if err != nil || n != len(p) {
		return n, err
	}
	if s.policy == syncLine {
		if err := s.f.Sync(); err != nil {
			return 0, err // a failed sync means the line is not durable
		}
	}
	return n, nil
}

// commit makes the epoch block just written durable: the one fsync a fence
// costs under -sync fence. A failure is counted, never fatal here — the
// engine keeps running and -journal-strict decides what it means.
func (s *journalSink) commit() {
	if s == nil || s.policy != syncFence {
		return
	}
	if err := s.f.Sync(); err != nil {
		s.syncErrs.Add(1)
	}
}

func (s *journalSink) syncErrors() uint64 {
	if s == nil {
		return 0
	}
	return s.syncErrs.Load()
}

func (s *journalSink) Close() error {
	if s == nil {
		return nil
	}
	return s.f.Close()
}

// engineLoop owns the control-plane engine: it alone enqueues and steps.
// An epoch runs as soon as a request is queued and the previous fence has
// closed, though never sooner than gap after the previous epoch began — the
// request that woke the loop and every other one waiting by then share that
// fence and its one commit — and otherwise on the heartbeat, so traffic
// keeps flowing while nobody is asking for anything. (Modeled time, not
// wall time, drives the datapath: when an epoch runs changes nothing it
// computes.) Responses are correlated back to the waiting handler by
// sequence number and released only once the fence is committed. After each
// fence the loop runs the watchdog (the -journal-strict sink check).
//
// Closed-loop clients come back in step: the ones a fence answered send
// their next requests within microseconds of each other, and if the first
// one back began the epoch alone the others would queue behind it and the
// clients would settle into taking turns, two epochs to an answer. So while
// the last fence is recent (cohortWait) the loop holds the next one until
// as many requests have arrived since as that fence answered. A lone or an
// occasional client never waits on this: its own request is the cohort.
type engineLoop struct {
	eng        *ctlplane.Engine
	sink       *journalSink
	heartbeat  time.Duration
	gap        time.Duration // minEpochGap; zero in tests that want no pacing
	cohortWait time.Duration
	submit     chan submission
	offer      chan int
	quit       <-chan struct{}
	watchdog   func()

	settled chan struct{}   // closed when run returns
	final   ctlplane.Ledger // the last fence's ledger; valid once settled is closed
}

// rearm sets t to fire d from now, dropping a firing nobody received.
func rearm(t *time.Timer, d time.Duration) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(d)
}

// run steps until quit, then answers everything already queued, pauses
// traffic and steps until nothing is in flight so the books close exactly.
func (l *engineLoop) run() {
	defer close(l.settled)
	pending := make(map[uint64]chan ctlplane.Response)
	var (
		began, released time.Time // the last epoch: when it started, when its answers left
		answered, fresh int       // how many it answered; how many requests were sent since
	)
	enqueue := func(sub submission) {
		pending[l.eng.Enqueue(sub.req)] = sub.resp
		if sub.at.After(released) {
			fresh++
		}
	}
	// room: no fence covers more than one queue's worth, so handlers that
	// keep sending cannot hold it open.
	room := func() bool { return len(pending) < cap(l.submit) }
	// gather enqueues what is waiting right now.
	gather := func() {
		for room() {
			select {
			case sub := <-l.submit:
				enqueue(sub)
			default:
				return
			}
		}
	}
	fence := func() ctlplane.Ledger {
		began = time.Now()
		rep := l.eng.Step()
		l.sink.commit()
		// Stamped before the first answer leaves, so that whatever an
		// answered client sends next is newer than it.
		answered, fresh, released = len(rep.Responses), 0, time.Now()
		for _, resp := range rep.Responses {
			if ch, ok := pending[resp.Seq]; ok {
				ch <- resp // buffered: never blocks on a departed client
				delete(pending, resp.Seq)
			}
		}
		return rep.Ledger
	}
	beat := time.NewTimer(l.heartbeat)
	defer beat.Stop()
	epoch := func() {
		fence()
		rearm(beat, l.heartbeat)
		l.watchdog()
	}
	linger := time.NewTimer(0)
	defer linger.Stop()
	// pace holds a demand epoch back: for the last fence's cohort while that
	// fence is recent, then for whatever is left of the gap.
	pace := func() {
		for fresh < answered && room() {
			wait := time.Until(released.Add(l.cohortWait))
			if wait <= 0 {
				break
			}
			rearm(linger, wait)
			select {
			case sub := <-l.submit:
				enqueue(sub)
			case <-linger.C:
			}
		}
		sleepUntil(began.Add(l.gap))
	}
	for {
		select {
		case sub := <-l.submit:
			enqueue(sub)
			pace()
			gather()
			epoch()
		case n := <-l.offer:
			l.eng.SetOffering(n)
		case <-beat.C:
			epoch()
		case <-l.quit:
			// Settle: every accepted request gets its fence answer, then
			// stop offering and run the backlog out. Bounded so a wedged
			// pipeline still exits (the unbalanced ledger then fails the
			// process).
			gather()
			l.eng.SetOffering(0)
			l.final = fence()
			for i := 0; l.final.InFlight > 0 && i < 1<<14; i++ {
				l.final = fence()
			}
			return
		}
	}
}

// streamParam parses the id query parameter.
func streamParam(q url.Values) (shard.StreamID, error) {
	v, err := strconv.ParseUint(q.Get("id"), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("id: %v", err)
	}
	return shard.StreamID(v), nil
}

// intParam parses a required integer query parameter.
func intParam(q url.Values, name string) (int, error) {
	v, err := strconv.Atoi(q.Get(name))
	if err != nil {
		return 0, fmt.Errorf("%s: %v", name, err)
	}
	return v, nil
}

// uintParam parses an optional uint16 query parameter (0 when absent).
func uintParam(q url.Values, name string) (uint16, error) {
	s := q.Get(name)
	if s == "" {
		return 0, nil
	}
	v, err := strconv.ParseUint(s, 10, 16)
	if err != nil {
		return 0, fmt.Errorf("%s: %v", name, err)
	}
	return uint16(v), nil
}

// parseSpec builds an attribute spec from class-specific query parameters.
// Validation proper happens at the fence (attr.Spec.Validate via the
// scheduler); this only maps names to fields.
func parseSpec(q url.Values) (attr.Spec, error) {
	period, err := uintParam(q, "period")
	if err != nil {
		return attr.Spec{}, err
	}
	priority, err := uintParam(q, "priority")
	if err != nil {
		return attr.Spec{}, err
	}
	weight, err := uintParam(q, "weight")
	if err != nil {
		return attr.Spec{}, err
	}
	guard, err := uintParam(q, "guard")
	if err != nil {
		return attr.Spec{}, err
	}
	num, err := uintParam(q, "num")
	if err != nil {
		return attr.Spec{}, err
	}
	den, err := uintParam(q, "den")
	if err != nil {
		return attr.Spec{}, err
	}
	switch c := q.Get("class"); c {
	case "edf":
		return attr.Spec{Class: attr.EDF, Period: period}, nil
	case "wc", "dwcs", "window-constrained":
		return attr.Spec{
			Class:      attr.WindowConstrained,
			Period:     period,
			Constraint: attr.Constraint{Num: uint8(num), Den: uint8(den)},
		}, nil
	case "static", "static-priority":
		return attr.Spec{Class: attr.StaticPriority, Priority: priority, Guard: guard}, nil
	case "fair", "fair-tag":
		return attr.Spec{Class: attr.FairTag, Weight: weight}, nil
	default:
		return attr.Spec{}, fmt.Errorf("class %q: want edf, wc, static, or fair", c)
	}
}

// ledgerDoc is the JSON served by /admin/ledger and printed at exit: the
// conservation snapshot plus the journal replay identity and sink health.
func (p *plane) ledgerDoc(led ctlplane.Ledger) map[string]any {
	hash, lines := p.eng.JournalSum()
	return map[string]any{
		"ledger":        led,
		"balanced":      led.Balanced(),
		"violations":    p.eng.Violations(),
		"journal_hash":  fmt.Sprintf("%016x", hash),
		"journal_lines": lines,
		"sink_errors":   p.sinkErrors(),
	}
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
