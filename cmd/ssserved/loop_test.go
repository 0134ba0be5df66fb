package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/ctlplane"
	"repro/internal/endsystem"
	"repro/internal/obs"
)

// fakeFile is a journal file that counts what the sink does to it. With
// entered set, every Sync announces itself there and then blocks until
// release is fed.
type fakeFile struct {
	mu            sync.Mutex
	lines, syncs  int
	err           error // returned by Sync
	entered, free chan struct{}
}

func (f *fakeFile) Write(p []byte) (int, error) {
	f.mu.Lock()
	f.lines++
	f.mu.Unlock()
	return len(p), nil
}

func (f *fakeFile) Sync() error {
	f.mu.Lock()
	f.syncs++
	f.mu.Unlock()
	if f.entered != nil {
		f.entered <- struct{}{}
		<-f.free
	}
	return f.err
}

func (f *fakeFile) Close() error { return nil }

func (f *fakeFile) counts() (lines, syncs int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lines, f.syncs
}

// rig is the daemon's inside without serve around it: an adminAPI on an
// httptest server over a real engine, with the engine loop not yet running
// — the "engine held" state. start releases it.
type rig struct {
	t      *testing.T
	api    *adminAPI
	pl     *plane
	base   string
	cancel context.CancelFunc
	loop   engineLoop
}

// newRig builds a 2×8 engine checkpointing at every fence. file may be nil
// (no journal sink).
func newRig(t *testing.T, queueCap int, heartbeat time.Duration, file journalFile, policy syncPolicy) *rig {
	t.Helper()
	var sink *journalSink
	var journal io.Writer
	if file != nil {
		sink = &journalSink{f: file, policy: policy}
		journal = sink
	}
	eng, err := endsystem.NewService(endsystem.ServiceConfig{
		Shards: 2, SlotsPerShard: 8, CyclesPerEpoch: 64, FramesPerStream: 1,
		CheckpointEvery: 1, Journal: journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &rig{t: t, cancel: cancel, pl: &plane{eng: eng, sink: sink}}
	r.api = newAdminAPI(ctx, cancel, obs.NewRegistry(), queueCap)
	r.api.plane.Store(r.pl)
	srv := httptest.NewServer(r.api.mux())
	r.base = srv.URL
	r.loop = engineLoop{
		eng: eng, sink: sink, heartbeat: heartbeat,
		submit: r.api.submit, offer: r.api.offer, quit: ctx.Done(), settled: r.api.settled,
		watchdog: func() {},
	}
	t.Cleanup(func() {
		cancel()
		srv.Close()
	})
	return r
}

func (r *rig) start() { go r.loop.run() }

// settle cancels, waits for the loop to exit, requires closed books and
// returns the final ledger.
func (r *rig) settle() ctlplane.Ledger {
	r.t.Helper()
	r.cancel()
	select {
	case <-r.api.settled:
	case <-time.After(10 * time.Second):
		r.t.Fatal("engine loop did not settle")
	}
	final := r.loop.final
	if !final.Balanced() || final.InFlight != 0 || r.pl.eng.Violations() != 0 {
		r.t.Fatalf("books did not close: %+v, %d violations", final, r.pl.eng.Violations())
	}
	return final
}

// admit posts one admit and returns its status code (0 on a transport
// error, reported with t.Error so it is safe off the test goroutine).
func (r *rig) admit(id int) int {
	resp, err := http.Post(fmt.Sprintf("%s/admin/admit?id=%d&class=edf&period=4", r.base, id), "", nil)
	if err != nil {
		r.t.Errorf("admit %d: %v", id, err)
		return 0
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") != "1" {
		r.t.Errorf("admit %d: 429 without Retry-After: 1", id)
	}
	return resp.StatusCode
}

// burst fires n concurrent admits (ids from..from+n-1) and returns a
// channel delivering their status codes.
func (r *rig) burst(from, n int) <-chan int {
	codes := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(id int) { codes <- r.admit(id) }(from + i)
	}
	return codes
}

func waitFor(t *testing.T, what string, ok func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !ok(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestServeStepsOnDemand: with a one-minute heartbeat the only thing that
// can close a fence within the deadline is the request itself.
func TestServeStepsOnDemand(t *testing.T) {
	cfg := testConfig()
	cfg.epochMs = 60_000
	base, wait := daemon(t, filepath.Join(t.TempDir(), "journal.txt"), cfg)
	epoch := func() float64 {
		return get(t, base, "/admin/ledger")["ledger"].(map[string]any)["Epoch"].(float64)
	}
	before := epoch()
	client := &http.Client{Timeout: 2 * time.Second}
	resp, err := client.Post(base+"/admin/admit?id=1&class=edf&period=4", "", nil)
	if err != nil {
		t.Fatalf("admit was not acknowledged within 2 s of a 60 s heartbeat: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admit: %d, want 200", resp.StatusCode)
	}
	if after := epoch(); after <= before {
		t.Fatalf("epoch %v -> %v: the admit did not step the engine", before, after)
	}
	post(t, base, "/admin/shutdown", http.StatusOK)
	if err := wait(); err != nil {
		t.Fatal(err)
	}
}

// TestHeartbeatStepsWhenIdle: nobody asks for anything, epochs still run.
func TestHeartbeatStepsWhenIdle(t *testing.T) {
	r := newRig(t, 4, time.Millisecond, nil, syncNone)
	r.start()
	waitFor(t, "three heartbeat epochs", func() bool { return r.pl.eng.Ledger().Epoch >= 3 })
	r.settle()
}

// TestEpochsKeepTheirGap: requests set when an epoch runs, not how often —
// a client asking back to back gets one epoch per gap, each started by its
// own request.
func TestEpochsKeepTheirGap(t *testing.T) {
	const gap, admits = 30 * time.Millisecond, 4
	r := newRig(t, 4, time.Hour, nil, syncNone)
	r.loop.gap = gap
	r.start()
	start := time.Now()
	for id := 1; id <= admits; id++ {
		if code := r.admit(id); code != http.StatusOK {
			t.Fatalf("admit %d: %d, want 200", id, code)
		}
	}
	if took, floor := time.Since(start), (admits-1)*gap; took < floor {
		t.Errorf("%d back-to-back admits took %v: epochs ran closer than the %v gap (floor %v)", admits, took, gap, floor)
	}
	if led := r.pl.eng.Ledger(); led.Epoch != admits {
		t.Errorf("%d epochs for %d sequential admits, want one each", led.Epoch, admits)
	}
	r.settle()
}

// TestCohortSharesAFence: closed-loop clients answered by one fence come
// back together and must share the next one instead of taking turns; a lone
// client is its own cohort and never waits for anybody.
func TestCohortSharesAFence(t *testing.T) {
	const clients, rounds = 3, 20
	const wait = 200 * time.Millisecond // what a fence held open for an absent cohort costs
	evictLoop := func(r *rig, n int) {
		for i := 0; i < n; i++ {
			resp, err := http.Post(r.base+"/admin/evict?id=404", "", nil)
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}

	r := newRig(t, 8, time.Hour, nil, syncNone)
	r.loop.cohortWait = wait
	r.start()
	start := time.Now()
	evictLoop(r, rounds)
	if took := time.Since(start); took > rounds*wait/2 {
		t.Errorf("a lone client's %d requests took %v: it is waiting for a cohort", rounds, took)
	}
	if final := r.settle(); final.Epoch != rounds+1 {
		t.Errorf("a lone client's %d requests took %d epochs, want one each and the settle", rounds, final.Epoch)
	}

	// The engine is held until every client's first request is queued, so
	// the first fence answers them all and they are one cohort from then on.
	r = newRig(t, 8, time.Hour, nil, syncNone)
	r.loop.cohortWait = wait
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			evictLoop(r, rounds)
		}()
	}
	waitFor(t, "every client's first request", func() bool { return len(r.api.submit) == clients })
	r.start()
	wg.Wait()
	if final := r.settle(); final.Epoch != rounds+1 {
		t.Errorf("%d clients × %d closed-loop rounds took %d epochs, want %d shared fences and the settle",
			clients, rounds, final.Epoch, rounds)
	}
}

// TestQueueBound: with the engine held, a capacity-K queue takes exactly K
// of K+M concurrent admits and refuses the rest at once; releasing the
// engine answers the K from a fence.
func TestQueueBound(t *testing.T) {
	const K, M = 6, 5
	r := newRig(t, K, time.Hour, nil, syncNone)
	codes := r.burst(1, K+M)
	for i := 0; i < M; i++ { // only refusals can come back while the engine is held
		if code := <-codes; code != http.StatusTooManyRequests {
			t.Fatalf("answer %d with the engine held: %d, want 429", i, code)
		}
	}
	if n := len(r.api.submit); n != K {
		t.Fatalf("%d requests queued, want %d", n, K)
	}
	select {
	case code := <-codes:
		t.Fatalf("a queued request was answered %d before any fence", code)
	case <-time.After(20 * time.Millisecond):
	}
	r.start()
	for i := 0; i < K; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("queued admit %d: %d, want 200", i, code)
		}
	}
	if led := r.pl.eng.Ledger(); led.Streams != K || led.Epoch != 1 {
		t.Fatalf("after release: %d streams at epoch %d, want %d admitted by one fence", led.Streams, led.Epoch, K)
	}
	r.settle()
}

// TestDurableBeforeAck: no response leaves before the fence's Sync returns,
// and each policy syncs exactly as often as it says — once per fence under
// fence (checkpoint epochs included: the rig checkpoints at every fence),
// once per line under line, never under none.
func TestDurableBeforeAck(t *testing.T) {
	const fences = 3
	for _, tc := range []struct {
		policy syncPolicy
		want   func(lines int) int
	}{
		{syncFence, func(int) int { return fences }},
		{syncLine, func(lines int) int { return lines }},
		{syncNone, func(int) int { return 0 }},
	} {
		f := &fakeFile{}
		if tc.policy == syncFence {
			f.entered, f.free = make(chan struct{}), make(chan struct{})
		}
		r := newRig(t, 4, time.Hour, f, tc.policy)
		r.start()
		for i := 1; i <= fences; i++ {
			sub := submission{
				req:  ctlplane.Request{Op: ctlplane.OpEvict, Stream: 404}, // refused at the fence: still a fence answer
				resp: make(chan ctlplane.Response, 1),
			}
			r.api.submit <- sub
			if f.entered != nil {
				<-f.entered // the loop is inside Sync: the epoch has stepped, nothing is durable yet
				select {
				case resp := <-sub.resp:
					t.Fatalf("fence %d: response %+v released before Sync returned", i, resp)
				case <-time.After(10 * time.Millisecond):
				}
				f.free <- struct{}{}
			}
			select {
			case <-sub.resp:
			case <-time.After(10 * time.Second):
				t.Fatalf("fence %d never answered", i)
			}
		}
		lines, syncs := f.counts()
		if want := tc.want(lines); syncs != want {
			t.Errorf("policy %d: %d syncs over %d fences and %d lines, want %d", tc.policy, syncs, fences, lines, want)
		}
		if f.entered != nil { // let the settle fences through
			go func() {
				for range f.entered {
					f.free <- struct{}{}
				}
			}()
		}
		r.settle()
	}
}

// TestFailedFenceSyncCounts: a fence whose fsync fails still answers, and
// the loss is in sink_errors by the time that epoch's watchdog runs.
func TestFailedFenceSyncCounts(t *testing.T) {
	f := &fakeFile{err: errors.New("disk gone")}
	r := newRig(t, 4, time.Hour, f, syncFence)
	atWatchdog := make(chan uint64, 1)
	r.loop.watchdog = func() {
		select {
		case atWatchdog <- r.pl.sinkErrors():
		default:
		}
	}
	r.start()
	if code := r.admit(1); code != http.StatusOK {
		t.Fatalf("admit over a failing sink: %d, want 200", code)
	}
	if n := <-atWatchdog; n != 1 {
		t.Fatalf("watchdog saw %d sink errors after the failed fence sync, want 1", n)
	}
	if got := r.pl.ledgerDoc(r.pl.eng.Ledger())["sink_errors"]; got != uint64(1) {
		t.Fatalf("ledger sink_errors = %v, want 1", got)
	}
	r.settle()
}

// TestShutdownAnswersQueued: requests accepted before the shutdown still
// get their fence answer, and ones arriving after it are turned away.
func TestShutdownAnswersQueued(t *testing.T) {
	const K = 5
	r := newRig(t, K, time.Hour, nil, syncNone)
	codes := r.burst(1, K)
	waitFor(t, "the queue to fill", func() bool { return len(r.api.submit) == K })
	r.cancel()
	r.start()
	for i := 0; i < K; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("request %d queued at shutdown: %d, want 200", i, code)
		}
	}
	if final := r.settle(); final.Streams != K {
		t.Fatalf("final ledger has %d streams, want the %d admitted at shutdown", final.Streams, K)
	}
	if code := r.admit(99); code != http.StatusServiceUnavailable {
		t.Fatalf("admit after shutdown: %d, want 503", code)
	}
}

// TestHandlerLeavesNoTimers: 10 000 acknowledged requests must leave
// nothing behind — no goroutine, and no 30 s timer still holding its
// channel (a time.After per request keeps ≈3 MB live here until it fires).
func TestHandlerLeavesNoTimers(t *testing.T) {
	const requests, clients = 10_000, 4
	r := newRig(t, 16, time.Hour, nil, syncNone)
	r.start()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	round := func(n int) {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n/clients; i++ {
					resp, err := client.Post(r.base+"/admin/evict?id=404", "", nil)
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusConflict {
						t.Errorf("evict of an unknown stream: %d, want 409", resp.StatusCode)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	live := func() (heap uint64, goroutines int) {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc, runtime.NumGoroutine()
	}
	round(200) // connections, buffers and the engine's slices reach steady state
	heap0, g0 := live()
	round(requests)
	heap1, g1 := live()
	if g1 > g0+2 {
		t.Errorf("goroutines %d -> %d across %d requests", g0, g1, requests)
	}
	if grew := int64(heap1) - int64(heap0); grew > 512<<10 {
		t.Errorf("live heap grew %d KiB across %d requests: something per-request outlives its handler", grew>>10, requests)
	}
	client.CloseIdleConnections()
	r.settle()
}
