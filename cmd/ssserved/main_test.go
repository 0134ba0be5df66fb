package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/attr"
	"repro/internal/ctlplane"
)

func TestStreamParam(t *testing.T) {
	cases := []struct {
		query string
		want  uint64
		ok    bool
	}{
		{"id=7", 7, true},
		{"id=0", 0, true},
		{"id=18446744073709551615", ^uint64(0), true},
		{"", 0, false},
		{"id=", 0, false},
		{"id=-1", 0, false},
		{"id=abc", 0, false},
		{"id=1.5", 0, false},
	}
	for _, c := range cases {
		q, _ := url.ParseQuery(c.query)
		id, err := streamParam(q)
		if (err == nil) != c.ok || (c.ok && uint64(id) != c.want) {
			t.Errorf("streamParam(%q) = %d, %v; want %d, ok=%t", c.query, id, err, c.want, c.ok)
		}
	}
}

func TestIntParam(t *testing.T) {
	cases := []struct {
		query string
		want  int
		ok    bool
	}{
		{"shard=3", 3, true},
		{"shard=-1", -1, true}, // range checking is the fence's job
		{"", 0, false},
		{"shard=", 0, false},
		{"shard=x", 0, false},
		{"shard=2.0", 0, false},
	}
	for _, c := range cases {
		q, _ := url.ParseQuery(c.query)
		v, err := intParam(q, "shard")
		if (err == nil) != c.ok || (c.ok && v != c.want) {
			t.Errorf("intParam(%q) = %d, %v; want %d, ok=%t", c.query, v, err, c.want, c.ok)
		}
	}
}

func TestUintParam(t *testing.T) {
	cases := []struct {
		query string
		want  uint16
		ok    bool
	}{
		{"period=9", 9, true},
		{"period=65535", 65535, true},
		{"", 0, true}, // optional: absent means zero
		{"period=65536", 0, false},
		{"period=-3", 0, false},
		{"period=zz", 0, false},
	}
	for _, c := range cases {
		q, _ := url.ParseQuery(c.query)
		v, err := uintParam(q, "period")
		if (err == nil) != c.ok || (c.ok && v != c.want) {
			t.Errorf("uintParam(%q) = %d, %v; want %d, ok=%t", c.query, v, err, c.want, c.ok)
		}
	}
}

func TestParseSpecParams(t *testing.T) {
	good := []struct {
		query string
		want  attr.Spec
	}{
		{"class=edf&period=8", attr.Spec{Class: attr.EDF, Period: 8}},
		{"class=wc&period=5&num=1&den=4", attr.Spec{
			Class: attr.WindowConstrained, Period: 5,
			Constraint: attr.Constraint{Num: 1, Den: 4}}},
		{"class=dwcs&period=5", attr.Spec{Class: attr.WindowConstrained, Period: 5}},
		{"class=static&priority=3&guard=64", attr.Spec{Class: attr.StaticPriority, Priority: 3, Guard: 64}},
		{"class=static-priority&priority=2", attr.Spec{Class: attr.StaticPriority, Priority: 2}},
		{"class=fair&weight=6", attr.Spec{Class: attr.FairTag, Weight: 6}},
		{"class=fair-tag&weight=1", attr.Spec{Class: attr.FairTag, Weight: 1}},
	}
	for _, c := range good {
		q, _ := url.ParseQuery(c.query)
		spec, err := parseSpec(q)
		if err != nil || spec != c.want {
			t.Errorf("parseSpec(%q) = %+v, %v; want %+v", c.query, spec, err, c.want)
		}
	}
	bad := []string{
		"",                    // no class
		"class=bogus",         // unknown class
		"class=edf&period=xx", // malformed field
		"class=edf&period=70000",
		"class=wc&period=5&num=zz",
		"class=static&priority=1&guard=-2",
		"class=fair&weight=1e3",
	}
	for _, query := range bad {
		q, _ := url.ParseQuery(query)
		if spec, err := parseSpec(q); err == nil {
			t.Errorf("parseSpec(%q) accepted: %+v", query, spec)
		}
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for name, want := range map[string]syncPolicy{"none": syncNone, "fence": syncFence, "line": syncLine} {
		if got, err := parseSyncPolicy(name); err != nil || got != want {
			t.Errorf("parseSyncPolicy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := parseSyncPolicy("always"); err == nil {
		t.Error("parseSyncPolicy accepted an unknown mode")
	}
}

// daemon runs serve() in a goroutine and returns its base URL and a wait
// function yielding serve's error.
func daemon(t *testing.T, journal string, cfg serveConfig) (string, func() error) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	errc := make(chan error, 1)
	go func() { errc <- serve("127.0.0.1:0", addrFile, journal, cfg) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			return "http://" + strings.TrimSpace(string(b)), func() error {
				select {
				case err := <-errc:
					return err
				case <-time.After(10 * time.Second):
					t.Fatal("serve did not exit")
					return nil
				}
			}
		}
		select {
		case err := <-errc:
			t.Fatalf("serve exited early: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never published its address")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// post issues a POST and decodes the JSON body, asserting the status code.
func post(t *testing.T, base, route string, wantCode int) map[string]any {
	t.Helper()
	resp, err := http.Post(base+route, "", nil)
	if err != nil {
		t.Fatalf("POST %s: %v", route, err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("POST %s: decode: %v", route, err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("POST %s: %d, want %d (%v)", route, resp.StatusCode, wantCode, doc)
	}
	return doc
}

func get(t *testing.T, base, route string) map[string]any {
	t.Helper()
	resp, err := http.Get(base + route)
	if err != nil {
		t.Fatalf("GET %s: %v", route, err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("GET %s: decode: %v", route, err)
	}
	return doc
}

func testConfig() serveConfig {
	return serveConfig{
		shards: 2, slots: 8, program: "dwcs", policy: "drop-oldest",
		epochMs: 1, cycles: 64, frames: 1, ckpt: 16, sync: "none",
	}
}

// TestServeHTTPCodes pins the admin API's status codes: 400 for malformed
// parameters, 409 for fence-rejected requests, 405 for wrong methods, 200
// for applied mutations.
func TestServeHTTPCodes(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal.txt")
	base, wait := daemon(t, journal, testConfig())

	post(t, base, "/admin/admit?id=1&class=edf&period=4", http.StatusOK)
	post(t, base, "/admin/admit?id=1&class=edf&period=4", http.StatusConflict) // already admitted
	post(t, base, "/admin/admit?id=zz&class=edf&period=4", http.StatusBadRequest)
	post(t, base, "/admin/admit?id=2&class=bogus", http.StatusBadRequest)
	post(t, base, "/admin/evict?id=404", http.StatusConflict) // not admitted
	post(t, base, "/admin/pool?shard=99&burst=1", http.StatusConflict)
	post(t, base, "/admin/pool?shard=0", http.StatusBadRequest) // burst missing
	post(t, base, "/admin/offering?frames=xx", http.StatusBadRequest)
	if resp, err := http.Get(base + "/admin/admit?id=3&class=edf&period=4"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET on a mutation route: %d, want 405", resp.StatusCode)
		}
	}
	if doc := get(t, base, "/admin/recovery"); doc["state"] != "serving" {
		t.Fatalf("recovery state %v, want serving", doc["state"])
	}
	if doc := get(t, base, "/admin/ledger"); doc["balanced"] != true {
		t.Fatalf("ledger not balanced: %v", doc)
	}

	post(t, base, "/admin/shutdown", http.StatusOK)
	if err := wait(); err != nil {
		t.Fatalf("clean run exited with: %v", err)
	}
}

// TestServeRecovery is the daemon-level crash drill: run a daemon, mutate
// it, tear its journal mid-line (the kill -9 aftermath), then boot a second
// daemon with -recover and require the admitted state and a balanced ledger
// to survive.
func TestServeRecovery(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "journal.txt")
	base, wait := daemon(t, journal, testConfig())
	for i := 1; i <= 5; i++ {
		post(t, base, fmt.Sprintf("/admin/admit?id=%d&class=edf&period=4", i), http.StatusOK)
	}
	post(t, base, "/admin/evict?id=3", http.StatusOK)
	post(t, base, "/admin/shutdown", http.StatusOK)
	if err := wait(); err != nil {
		t.Fatalf("first run: %v", err)
	}

	// Tear the tail mid-line: drop the final 7 bytes, as a crash mid-write
	// would.
	text, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journal, text[:len(text)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	cfg := testConfig()
	cfg.recover = true
	base2, wait2 := daemon(t, journal, cfg)
	// The endpoint is up before replay finishes (degraded mode): wait it out.
	var doc map[string]any
	waitFor(t, "recovery to reach serving", func() bool {
		doc = get(t, base2, "/admin/recovery")
		return doc["state"] == "serving"
	})
	rec, ok := doc["recovered"].(map[string]any)
	if !ok {
		t.Fatalf("recovery doc has no recovered summary: %v", doc)
	}
	if torn, ok := rec["torn_bytes"].(float64); !ok || torn <= 0 {
		t.Fatalf("recovery doc did not report the torn tail: %v", doc)
	}
	// Streams 1,2,4,5 survived; 3 was evicted before the crash.
	post(t, base2, "/admin/admit?id=1&class=edf&period=4", http.StatusConflict)
	post(t, base2, "/admin/evict?id=3", http.StatusConflict)
	post(t, base2, "/admin/retune?id=4&class=edf&period=9", http.StatusOK)
	if doc := get(t, base2, "/admin/ledger"); doc["balanced"] != true {
		t.Fatalf("recovered ledger not balanced: %v", doc)
	}
	post(t, base2, "/admin/shutdown", http.StatusOK)
	if err := wait2(); err != nil {
		t.Fatalf("recovered run: %v", err)
	}

	// The truncated-and-appended journal must itself replay cleanly end to
	// end: recovery left a valid journal behind.
	text2, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if _, rep, err := ctlplane.Replay(bytes.NewReader(text2)); err != nil {
		t.Fatalf("post-recovery journal does not replay: %v", err)
	} else if rep.TornBytes != 0 {
		t.Fatalf("post-recovery journal still has a torn tail: %d bytes", rep.TornBytes)
	}
}

// TestServeJournalStrict covers the healthy half of -journal-strict: a
// clean run with a working sink must still exit zero (the sink-death half
// is exercised at the engine layer by ctlplane's fault-injection tests —
// serve owns opening its own file, so a failing sink cannot be planted
// from here without racing the daemon).
func TestServeJournalStrict(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal.txt")
	cfg := testConfig()
	cfg.strict = true
	base, wait := daemon(t, journal, cfg)
	post(t, base, "/admin/admit?id=1&class=edf&period=4", http.StatusOK)
	post(t, base, "/admin/shutdown", http.StatusOK)
	if err := wait(); err != nil {
		t.Fatalf("strict run with a healthy sink: %v", err)
	}
}

// TestServeConfigErrors pins the flag-validation error paths.
func TestServeConfigErrors(t *testing.T) {
	cases := []struct {
		cfg     serveConfig
		journal string
		want    string
	}{
		{serveConfig{program: "bogus", policy: "drop-oldest", epochMs: 1, sync: "none"}, "", "rank program"},
		{serveConfig{program: "dwcs", policy: "fifo", epochMs: 1, sync: "none"}, "", "-policy"},
		{serveConfig{program: "dwcs", policy: "drop-oldest", epochMs: 0, sync: "none"}, "", "-epoch-ms"},
		{serveConfig{program: "dwcs", policy: "drop-oldest", epochMs: 1, sync: "sometimes"}, "", "-sync"},
		{serveConfig{program: "dwcs", policy: "drop-oldest", epochMs: 1, sync: "none", recover: true}, "", "-recover"},
	}
	for _, c := range cases {
		err := serve("127.0.0.1:0", "", c.journal, c.cfg)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("serve(%+v) = %v, want error containing %q", c.cfg, err, c.want)
		}
	}
}
