package ctlplane

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// soakJournal runs a small checkpointed soak and returns its journal text
// and result.
func soakJournal(t *testing.T) ([]byte, SoakResult) {
	t.Helper()
	var buf bytes.Buffer
	res, err := Soak(SoakConfig{
		Seed: 11, Events: 3000, EventsPerEpoch: 16,
		Shards: 2, SlotsPerShard: 8, CheckpointEvery: 32, Journal: &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res
}

// sameOffering asserts two offerings match entry for entry.
func sameOffering(t *testing.T, got, want []StreamEntry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("offering has %d streams, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("offering entry %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestReplayRoundTrip replays an uninterrupted soak journal and requires
// the reconstructed engine to match the original in every observable:
// journal hash and line count, conservation ledger, and admitted offering.
func TestReplayRoundTrip(t *testing.T) {
	text, res := soakJournal(t)
	eng, rep, err := Replay(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Hash != res.JournalHash || rep.Lines != res.JournalLines {
		t.Fatalf("replay identity %x/%d, original %x/%d",
			rep.Hash, rep.Lines, res.JournalHash, res.JournalLines)
	}
	if rep.TornBytes != 0 || rep.DroppedLines != 0 {
		t.Fatalf("clean journal reported a dropped tail: %d bytes, %d lines",
			rep.TornBytes, rep.DroppedLines)
	}
	if rep.CommittedBytes != int64(len(text)) {
		t.Fatalf("committed %d of %d bytes", rep.CommittedBytes, len(text))
	}
	if rep.Epochs != res.Epochs {
		t.Fatalf("replayed %d epochs, original ran %d", rep.Epochs, res.Epochs)
	}
	if rep.Checkpoints == 0 || rep.Checkpoint == nil {
		t.Fatal("checkpointed journal replayed without verifying any checkpoint")
	}
	if got := eng.Ledger(); got != res.Final {
		t.Fatalf("replayed ledger %+v, original %+v", got, res.Final)
	}
	sameOffering(t, eng.Offering(), res.Offering)
	if eng.Violations() != 0 {
		t.Fatalf("replay manufactured %d conservation violations", eng.Violations())
	}
}

// TestReplayTornTail cuts a soak journal at awkward byte offsets — mid-line,
// mid-checksum, right after a newline — and requires Replay to recover the
// longest committed prefix: no error, a consistent report, and an engine
// whose journal hash equals the FNV over exactly the committed bytes.
func TestReplayTornTail(t *testing.T) {
	text, _ := soakJournal(t)
	// A spread of cuts: some mid-line, some at line boundaries, some inside
	// the trailing checksum.
	cuts := []int{
		len(text) - 1, len(text) - 3, len(text) - 40,
		len(text) / 2, len(text)/2 + 1, len(text) / 3,
		bytes.IndexByte(text, '\n') + 1, // right after the header
	}
	for _, cut := range cuts {
		eng, rep, err := Replay(bytes.NewReader(text[:cut]))
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if rep.CommittedBytes > int64(cut) {
			t.Fatalf("cut at %d: committed %d bytes past the cut", cut, rep.CommittedBytes)
		}
		if rep.CommittedBytes+rep.TornBytes != int64(cut) {
			t.Fatalf("cut at %d: committed %d + torn %d != input", cut, rep.CommittedBytes, rep.TornBytes)
		}
		// The committed prefix must itself replay to the same identity: the
		// reconstructed engine's journal is byte-identical to it.
		j := newJournal(nil)
		j.h.Write(text[:rep.CommittedBytes])
		if sum := j.h.Sum64(); sum != rep.Hash {
			t.Fatalf("cut at %d: committed prefix hashes to %x, engine reports %x", cut, sum, rep.Hash)
		}
		if led := eng.Ledger(); !led.Balanced() {
			t.Fatalf("cut at %d: recovered engine unbalanced: %+v", cut, led)
		}
	}
}

// TestReplayUncommittedBlockDropped hands Replay a journal ending in
// response lines whose fence never journaled its ledger: the whole trailing
// block must be dropped even though every line is complete.
func TestReplayUncommittedBlockDropped(t *testing.T) {
	text, _ := soakJournal(t)
	// Find the last ledger line whose epoch is NOT checkpoint-due, so the
	// prefix ending there is fully committed (a due ledger would await its
	// checkpoint line).
	idx := -1
	for search := 0; ; {
		j := bytes.Index(text[search:], []byte(" ledger "))
		if j < 0 {
			break
		}
		pos := search + j
		lineStart := bytes.LastIndexByte(text[:pos], '\n') + 1
		var epoch uint64
		if _, err := fmt.Sscanf(string(text[lineStart:pos]), "E%d", &epoch); err == nil && epoch%32 != 0 {
			idx = pos
		}
		search = pos + 1
	}
	if idx < 0 {
		t.Fatal("no non-checkpoint ledger line in the soak journal")
	}
	lineEnd := bytes.IndexByte(text[idx:], '\n') + idx + 1
	_, rep, err := Replay(bytes.NewReader(text[:lineEnd]))
	if err != nil {
		t.Fatal(err)
	}
	if rep.TornBytes != 0 || rep.CommittedBytes != int64(lineEnd) {
		t.Fatalf("prefix ending at a ledger line should fully commit: committed %d of %d, torn %d",
			rep.CommittedBytes, lineEnd, rep.TornBytes)
	}

	// Append a complete response line with no ledger after it: the block
	// never committed, so replay must drop it without executing it.
	tail := append([]byte{}, text[:lineEnd]...)
	fake := []byte("E999999 #999999 evict id=12345 -> err: ctlplane: stream 12345 not admitted")
	tail = append(tail, appendChecksummed(nil, fake)...)
	_, rep2, err := Replay(bytes.NewReader(tail))
	if err != nil {
		t.Fatal(err)
	}
	if rep2.CommittedBytes != int64(lineEnd) {
		t.Fatalf("uncommitted trailing block moved the commit point: %d vs %d",
			rep2.CommittedBytes, lineEnd)
	}
	if rep2.DroppedLines != 1 {
		t.Fatalf("trailing ledger-less block: %d dropped lines, want 1", rep2.DroppedLines)
	}
}

// appendChecksummed renders line as a complete journal record (checksum
// suffix plus newline) appended to dst.
func appendChecksummed(dst, line []byte) []byte {
	dst = append(dst, line...)
	dst = append(dst, []byte{' ', '~'}...)
	const hexdigits = "0123456789abcdef"
	sum := lineSum(line)
	for shift := 28; shift >= 0; shift -= 4 {
		dst = append(dst, hexdigits[(sum>>shift)&0xf])
	}
	return append(dst, '\n')
}

// TestReplayCorruption flips a byte in the middle of a journal: a complete
// line failing its checksum is corruption, never a torn tail.
func TestReplayCorruption(t *testing.T) {
	text, _ := soakJournal(t)
	bad := append([]byte{}, text...)
	bad[len(bad)/2] ^= 0x01
	if _, _, err := Replay(bytes.NewReader(bad)); !errors.Is(err, ErrCorruptJournal) {
		t.Fatalf("mid-file bit flip: %v, want ErrCorruptJournal", err)
	}

	// An edited-but-rechecksummed line parses cleanly yet diverges from
	// re-execution.
	lines := bytes.SplitAfter(text, []byte("\n"))
	for i, line := range lines {
		if bytes.Contains(line, []byte(" ledger ")) {
			payload, _ := checkLine(bytes.TrimSuffix(line, []byte("\n")))
			forged := strings.Replace(payload, "ledger offered=", "ledger offered=9", 1)
			lines[i] = appendChecksummed(nil, []byte(forged))
			break
		}
	}
	forged := bytes.Join(lines, nil)
	if _, _, err := Replay(bytes.NewReader(forged)); !errors.Is(err, ErrReplayDivergence) {
		t.Fatalf("forged ledger: %v, want ErrReplayDivergence", err)
	}

	if _, _, err := Replay(bytes.NewReader(nil)); !errors.Is(err, ErrCorruptJournal) {
		t.Fatalf("empty journal: %v, want ErrCorruptJournal", err)
	}
}

// TestResumeContinuesReplay replays a prefix, then resumes the same engine
// through the full journal: the result must match a full replay exactly.
func TestResumeContinuesReplay(t *testing.T) {
	text, res := soakJournal(t)
	cut := len(text) * 2 / 3
	eng, rep, err := Replay(bytes.NewReader(text[:cut]))
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := Resume(eng, bytes.NewReader(text), rep)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Hash != res.JournalHash || rep2.Lines != res.JournalLines {
		t.Fatalf("resume identity %x/%d, original %x/%d",
			rep2.Hash, rep2.Lines, res.JournalHash, res.JournalLines)
	}
	if got := eng.Ledger(); got != res.Final {
		t.Fatalf("resumed ledger %+v, original %+v", got, res.Final)
	}
	sameOffering(t, eng.Offering(), res.Offering)

	// Resume against a journal that no longer matches the committed prefix
	// must refuse.
	mangled := append([]byte{}, text...)
	mangled[15] ^= 0x01
	eng2, rep3, err := Replay(bytes.NewReader(text[:cut]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(eng2, bytes.NewReader(mangled), rep3); err == nil {
		t.Fatal("resume accepted a journal that diverged from its committed prefix")
	}
}

// TestLatestCheckpoint scans journals and torn prefixes for the last full
// checkpoint without re-execution.
func TestLatestCheckpoint(t *testing.T) {
	text, _ := soakJournal(t)
	ck, ok, err := LatestCheckpoint(bytes.NewReader(text))
	if err != nil || !ok {
		t.Fatalf("clean journal: ok=%t err=%v", ok, err)
	}
	if ck.Epoch == 0 || ck.Epoch%32 != 0 {
		t.Fatalf("checkpoint at epoch %d, want a multiple of the cadence 32", ck.Epoch)
	}

	// A torn prefix still yields the last complete checkpoint before the
	// tear.
	torn, ok, err := LatestCheckpoint(bytes.NewReader(text[:len(text)-7]))
	if err != nil || !ok {
		t.Fatalf("torn journal: ok=%t err=%v", ok, err)
	}
	if torn.Epoch > ck.Epoch {
		t.Fatalf("torn prefix found a later checkpoint (%d) than the full journal (%d)", torn.Epoch, ck.Epoch)
	}

	// Before the first checkpoint there is nothing to report.
	first := bytes.Index(text, []byte(" checkpoint "))
	lineStart := bytes.LastIndexByte(text[:first], '\n') + 1
	if _, ok, err := LatestCheckpoint(bytes.NewReader(text[:lineStart])); ok || err != nil {
		t.Fatalf("pre-checkpoint prefix: ok=%t err=%v, want none", ok, err)
	}
}

// TestReplayChecksAllocateNothingPerEpoch pins that a clean replay's byte
// identity checks build no per-epoch location string: over two journal
// lengths, replay's extra allocations per epoch are exactly re-execution's
// (a live engine stepping the same epochs) plus parsing's (LatestCheckpoint
// scanning the same journal), with nothing left over for verifyHash.
func TestReplayChecksAllocateNothingPerEpoch(t *testing.T) {
	cfg := Config{Shards: 1, SlotsPerShard: 4, CheckpointEvery: -1}
	journal := func(epochs int) []byte {
		var buf bytes.Buffer
		c := cfg
		c.Journal = &buf
		eng, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < epochs; i++ {
			eng.Step()
		}
		return buf.Bytes()
	}
	const k = 100
	short, long := journal(k), journal(2*k)
	// perEpoch is f's allocation slope between the k- and 2k-epoch runs.
	perEpoch := func(f func(epochs int, text []byte)) float64 {
		a := testing.AllocsPerRun(3, func() { f(k, short) })
		b := testing.AllocsPerRun(3, func() { f(2*k, long) })
		return (b - a) / k
	}
	replay := perEpoch(func(_ int, text []byte) {
		if _, _, err := Replay(bytes.NewReader(text)); err != nil {
			t.Fatal(err)
		}
	})
	live := perEpoch(func(epochs int, _ []byte) {
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < epochs; i++ {
			eng.Step()
		}
	})
	parse := perEpoch(func(_ int, text []byte) {
		if _, _, err := LatestCheckpoint(bytes.NewReader(text)); err != nil {
			t.Fatal(err)
		}
	})
	if extra := replay - live - parse; extra > 0.5 || extra < -0.5 {
		t.Fatalf("replay allocates %.2f/epoch = re-execution %.2f + parsing %.2f + %.2f unexplained (want 0)",
			replay, live, parse, extra)
	}
}
