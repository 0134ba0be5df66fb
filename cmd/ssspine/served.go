package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/attr"
	"repro/internal/ctlplane"
)

// servedFlags is the daemon configuration both served workloads run: the
// service-default 4×16 fabric at a 1 ms epoch, every fence fsynced before
// its responses unblock.
var servedFlags = []string{"-shards", "4", "-slots", "16", "-epoch-ms", "1", "-sync", "fence"}

// daemon is one running ssserved process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	stdout bytes.Buffer
	stderr bytes.Buffer
	client *http.Client
	done   chan struct{}
	err    error // cmd.Wait's result, valid once done is closed
}

// ledgerDoc is the JSON ssserved serves on /admin/ledger and prints at exit.
type ledgerDoc struct {
	Ledger       ctlplane.Ledger `json:"ledger"`
	Balanced     bool            `json:"balanced"`
	Violations   uint64          `json:"violations"`
	JournalLines uint64          `json:"journal_lines"`
	SinkErrors   uint64          `json:"sink_errors"`
}

// startDaemon execs bin and waits for its first 200 on /admin/ledger — a
// fresh daemon answers as soon as its engine is built, a recovering one only
// once replay has finished. It returns the wall time from exec to that
// answer. The caller owns the process: stop or kill it.
func startDaemon(bin, dir string, extra ...string) (*daemon, time.Duration, error) {
	addrFile := filepath.Join(dir, "addr")
	_ = os.Remove(addrFile) // a stale address would be dialed before the new daemon listens
	argv := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, servedFlags...)
	d := &daemon{
		cmd:    exec.Command(bin, append(argv, extra...)...),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}, Timeout: 60 * time.Second},
		done:   make(chan struct{}),
	}
	d.cmd.Stdout, d.cmd.Stderr = &d.stdout, &d.stderr
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	giveUp := start.Add(60 * time.Second)
	poll := func(step time.Duration, ok func() bool) error {
		for !ok() {
			select {
			case <-d.done:
				return fmt.Errorf("ssserved exited during start-up: %v\n%s", d.err, d.stderr.String())
			default:
			}
			if time.Now().After(giveUp) {
				d.kill()
				return fmt.Errorf("ssserved not serving after 60 s\n%s", d.stderr.String())
			}
			time.Sleep(step)
		}
		return nil
	}
	if err := poll(200*time.Microsecond, func() bool {
		b, err := os.ReadFile(addrFile)
		if err != nil || !bytes.HasSuffix(b, []byte("\n")) {
			return false
		}
		d.base = "http://" + strings.TrimSpace(string(b))
		return true
	}); err != nil {
		return nil, 0, err
	}
	if err := poll(500*time.Microsecond, func() bool {
		code, _, err := d.get("/admin/ledger")
		return err == nil && code == http.StatusOK
	}); err != nil {
		return nil, 0, err
	}
	return d, time.Since(start), nil
}

func (d *daemon) get(path string) (int, []byte, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// post sends one admin mutation and returns its status. The body is drained
// so the keep-alive connection is reused.
func (d *daemon) post(client *http.Client, route, query string) (int, error) {
	resp, err := client.Post(d.base+"/admin/"+route+"?"+query, "", nil)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

func (d *daemon) ledger() (ledgerDoc, error) {
	var doc ledgerDoc
	code, body, err := d.get("/admin/ledger")
	if err != nil {
		return doc, err
	}
	if code != http.StatusOK {
		return doc, fmt.Errorf("GET /admin/ledger: HTTP %d", code)
	}
	return doc, json.Unmarshal(body, &doc)
}

// kill ends the process now and waits for it; safe to call on a daemon that
// has already exited.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.done
	d.client.CloseIdleConnections()
}

// stop asks for a graceful exit (SIGTERM), waits for it, and returns the
// final ledger the daemon printed. A daemon that settles with open books
// exits non-zero, which is an error here.
func (d *daemon) stop() (ledgerDoc, error) {
	var doc ledgerDoc
	d.client.CloseIdleConnections() // or the daemon's graceful HTTP shutdown waits on them
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return doc, err
	}
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		d.kill()
		return doc, errors.New("ssserved ignored SIGTERM for 30 s")
	}
	if d.err != nil {
		return doc, fmt.Errorf("ssserved exit: %v\n%s", d.err, d.stderr.String())
	}
	return doc, json.Unmarshal(d.stdout.Bytes(), &doc)
}

// checkClosed counts the exit checks both served workloads make: the final
// ledger balances with nothing in flight, no epoch violated conservation,
// and no journal line was lost.
func checkClosed(e *env, doc ledgerDoc) {
	e.check(doc.Balanced && doc.Ledger.InFlight == 0, "books did not close: %+v", doc.Ledger)
	e.check(doc.Violations == 0, "%d conservation violations", doc.Violations)
	e.check(doc.SinkErrors == 0, "%d journal sink errors", doc.SinkErrors)
}

// adminClient is one closed-loop admin caller. It owns a private range of
// stream IDs and never lets its population exceed maxLive, so what a request
// must return depends on this client's history alone: a fresh admit is 200,
// a second admit of a live stream 409, a retune or evict of a live stream
// 200, of an unknown one 409. (Two clients × maxLive streams fit in one
// shard's 16 slots, so no admission is ever refused for space.)
type adminClient struct {
	rng   *rand.Rand
	next  uint64
	live  []uint64
	class map[uint64]attr.Class
}

const maxLive = 8

func newAdminClient(seed int64, index int) *adminClient {
	return &adminClient{
		rng:   rand.New(rand.NewSource(seed + int64(index)*7919)),
		next:  uint64(index+1) * 1_000_000,
		class: make(map[uint64]attr.Class),
	}
}

// draw returns the next request and the status it must be answered with.
func (c *adminClient) draw() (route, query string, want int) {
	roll := c.rng.Intn(100)
	if len(c.live) == 0 || (roll < 30 && len(c.live) < maxLive) {
		id := c.next
		c.next++
		class := churnClasses[c.rng.Intn(len(churnClasses))]
		c.live = append(c.live, id)
		c.class[id] = class
		return "admit", fmt.Sprintf("id=%d&%s", id, specQuery(randomSpec(c.rng, class))), http.StatusOK
	}
	i := c.rng.Intn(len(c.live))
	id := c.live[i]
	switch {
	case roll < 35: // deliberate double admit
		return "admit", fmt.Sprintf("id=%d&%s", id, specQuery(randomSpec(c.rng, c.class[id]))), http.StatusConflict
	case roll < 70:
		return "retune", fmt.Sprintf("id=%d&%s", id, specQuery(randomSpec(c.rng, c.class[id]))), http.StatusOK
	case roll < 74: // deliberate class change
		other := churnClasses[(int(c.class[id])+1)%len(churnClasses)]
		return "retune", fmt.Sprintf("id=%d&%s", id, specQuery(randomSpec(c.rng, other))), http.StatusConflict
	case roll < 78: // deliberate unknown stream
		return "evict", fmt.Sprintf("id=%d", c.next+500_000), http.StatusConflict
	default:
		c.live[i] = c.live[len(c.live)-1]
		c.live = c.live[:len(c.live)-1]
		delete(c.class, id)
		return "evict", fmt.Sprintf("id=%d", id), http.StatusOK
	}
}

// load drives n closed-loop clients against d until stop reports true, and
// returns every ack latency in seconds plus how many answers carried an
// unexpected status or failed outright.
func load(d *daemon, seed int64, n int, tr *tracer, stop func(done int) bool) (acks []float64, unexpected uint64, spans []span) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := newAdminClient(seed, i)
			client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 60 * time.Second}
			defer client.CloseIdleConnections()
			var ctr *tracer
			if tr != nil {
				ctr = newTracer(tr.workload, tr.origin, (i+1)<<24)
			}
			var mine []float64
			var bad uint64
			for !stop(len(mine)) {
				route, query, want := c.draw()
				sp := ctr.begin("http.POST /admin/" + route)
				start := time.Now()
				code, err := d.post(client, route, query)
				lat := time.Since(start)
				ctr.end(sp)
				mine = append(mine, lat.Seconds())
				if err != nil || code != want {
					bad++
				}
			}
			mu.Lock()
			acks = append(acks, mine...)
			unexpected += bad
			if ctr != nil {
				spans = append(spans, ctr.spans...)
			}
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	return acks, unexpected, spans
}

// runServedChurn times admin acks against the built daemon: POST sent to
// fence response received, closed loop. Set-up is exec to first 200.
func runServedChurn(e *env) error {
	journal := filepath.Join(e.dir, "served.journal")
	d, _, err := startDaemon(e.served, e.dir, "-journal", journal)
	if err != nil {
		return err
	}
	defer d.kill()
	if e.ready() {
		return nil
	}
	before, err := d.ledger()
	if err != nil {
		return err
	}
	start := time.Now()
	acks, unexpected, spans := load(d, e.seed, e.sz.servedClients, e.tr, func(done int) bool {
		return done >= e.sz.minOps && !time.Now().Before(e.deadline)
	})
	wall := time.Since(start)
	after, err := d.ledger()
	if err != nil {
		return err
	}
	if e.tr != nil {
		e.tr.spans = append(e.tr.spans, spans...)
	}
	e.ops = acks
	e.frames = after.Ledger.Delivered - before.Ledger.Delivered
	e.frameWall = wall
	e.attempted += uint64(len(acks))
	if unexpected > 0 {
		e.fail(unexpected, "%d of %d requests answered with an unexpected status or error", unexpected, len(acks))
	}
	e.check(after.Balanced && after.Violations == 0, "live ledger unbalanced: %+v", after)
	e.counts["requests"] = float64(len(acks))
	e.rssMB = vmHWM(d.cmd.Process.Pid)
	final, err := d.stop()
	if err != nil {
		e.check(false, "graceful exit: %v", err)
		return nil
	}
	checkClosed(e, final)
	return nil
}

// tornTail is what a kill -9 leaves after the last committed fence: half a
// journal line. Recovery must drop it and truncate the file there.
const tornTail = "E99999 ledger offered=1 deliv"

// writeRecoveryJournal runs the service-default engine under seeded churn
// for epochs fences, journaling to path, and tears the tail. It returns what
// a faithful recovery must rebuild.
func writeRecoveryJournal(seed int64, path string, sz sizes) (hash, lines uint64, led ctlplane.Ledger, err error) {
	eng, gen, f, err := newLiveEngine(seed, path, sz.livePrefill)
	if err != nil {
		return 0, 0, led, err
	}
	for s := 0; s < sz.recoverEpochs; s++ {
		for r := 0; r < sz.liveRequests; r++ {
			eng.Enqueue(gen.request())
		}
		gen.digest(eng.Step().Responses)
	}
	if _, err := f.WriteString(tornTail); err != nil {
		f.Close()
		return 0, 0, led, err
	}
	hash, lines = eng.JournalSum()
	return hash, lines, eng.Ledger(), f.Close()
}

// runServedRecover times kill -9 recovery: ssserved -recover exec'd on a
// torn journal, until its first 200. Each op recovers a fresh copy of the
// same journal, then the daemon is told to exit and must close its books.
func runServedRecover(e *env) error {
	pristine := filepath.Join(e.dir, "pristine.journal")
	hash, lines, led, err := writeRecoveryJournal(e.seed, pristine, e.sz)
	if err != nil {
		return err
	}
	defer os.Remove(pristine)
	image, err := os.ReadFile(pristine)
	if err != nil {
		return err
	}
	work := filepath.Join(e.dir, "recover.journal")
	defer os.Remove(work)
	if e.ready() {
		return nil
	}
	e.exact["journal_hash"] = fmt.Sprintf("%016x", hash)
	e.exact["journal_lines"] = fmt.Sprint(lines)
	e.exact["frames_per_op"] = fmt.Sprint(led.Delivered)
	var rss []float64
	for e.more() {
		if err := os.WriteFile(work, image, 0o644); err != nil {
			return err
		}
		sp := e.tr.begin("ssserved -recover")
		d, took, err := startDaemon(e.served, e.dir, "-journal", work, "-recover")
		e.tr.end(sp)
		if err != nil {
			return err
		}
		e.op(took, led.Delivered)
		rss = append(rss, vmHWM(d.cmd.Process.Pid))
		// The daemon resumes ticking the moment it serves, so its ledger
		// has moved on; the journal identity at the recovery point is in
		// what it replayed.
		code, body, err := d.get("/admin/recovery")
		var rec struct {
			State     string `json:"state"`
			Recovered struct {
				Epochs    uint64 `json:"epochs"`
				TornBytes int64  `json:"torn_bytes"`
			} `json:"recovered"`
		}
		if err == nil && code == http.StatusOK {
			err = json.Unmarshal(body, &rec)
		}
		e.check(err == nil && rec.State == "serving", "GET /admin/recovery: HTTP %d, %v, state %q", code, err, rec.State)
		e.expect("epochs replayed", rec.Recovered.Epochs, led.Epoch)
		e.check(rec.Recovered.TornBytes == int64(len(tornTail)), "recovery dropped %d torn bytes, want %d",
			rec.Recovered.TornBytes, len(tornTail))
		now, err := d.ledger()
		e.check(err == nil && now.Balanced && now.Ledger.Delivered >= led.Delivered && now.JournalLines >= lines,
			"recovered ledger %+v (%v), journal wrote %+v", now, err, led)
		final, err := d.stop()
		if err != nil {
			e.check(false, "exit after recovery: %v", err)
			continue
		}
		checkClosed(e, final)
		e.counts["frames"] += float64(led.Delivered)
		e.counts["lines"] += float64(lines)
		e.counts["calls"]++
	}
	e.rssMB = median(rss)
	return nil
}
