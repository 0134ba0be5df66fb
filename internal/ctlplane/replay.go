package ctlplane

import (
	"fmt"
	"io"
)

// Replay reconstructs an Engine from an ssctl v2 journal by deterministic
// re-execution: the engine's only inputs are its configuration (journal
// line zero), the fenced request sequence, the offering changes, and the
// epoch boundaries — all of which the journal records — so feeding them
// back through a fresh engine reproduces every byte the original wrote.
// After every re-executed fence the reconstructed engine's JournalSum must
// equal the FNV-64a of the input consumed so far; any disagreement is
// ErrReplayDivergence, localized to within CheckpointEvery fences by the
// periodic checkpoint records (which replay re-derives and compares field
// by field).
//
// The commit unit is the epoch block: one fence's response lines, its
// optional VIOLATION line, its ledger line, and its checkpoint line when
// one is due (epoch % CheckpointEvery == 0). A crash tears the journal's
// final write, so a trailing partial line — or a trailing complete block
// that never reached its ledger (or due checkpoint) — is dropped, not an
// error: those requests were never acknowledged (responses are delivered
// only after the fence durably journals them), so dropping the tail is
// exactly-once at fence granularity. Damage anywhere else is
// ErrCorruptJournal.
//
// The returned report carries what recovery needs: CommittedBytes is where
// a daemon truncates the journal file before appending (the torn tail and
// any uncommitted block end there), and CommittedLines is where Resume
// picks up.
func Replay(r io.Reader) (*Engine, *ReplayReport, error) {
	sc := newScanner(r)
	payload, err := sc.next()
	if err == io.EOF {
		return nil, nil, fmt.Errorf("%w: no complete header line", ErrCorruptJournal)
	}
	if err != nil {
		return nil, nil, err
	}
	rec, err := parseRecord(payload)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrCorruptJournal, err)
	}
	if rec.kind != recHeader {
		return nil, nil, fmt.Errorf("%w: journal does not start with a header: %q", ErrCorruptJournal, payload)
	}
	cfg := rec.cfg
	cfg.Journal = nil
	eng, err := New(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("ctlplane: replay: journal config rejected: %w", err)
	}
	rp := &replayer{sc: sc, eng: eng, rep: &ReplayReport{}}
	if err := rp.verifyHash("header", 0); err != nil {
		return nil, nil, err
	}
	rp.commit()
	if err := rp.run(); err != nil {
		return nil, nil, err
	}
	return eng, rp.rep, nil
}

// Resume continues a replayed engine through the journal's growth since the
// replay: r must yield the same journal from byte zero (the prior prefix is
// re-hashed and verified, not re-executed), and prior is the report Replay
// returned. The crash-point harness uses this to prove prefix-replay plus
// resume reproduces the uninterrupted run.
func Resume(eng *Engine, r io.Reader, prior *ReplayReport) (*ReplayReport, error) {
	sc := newScanner(r)
	for i := uint64(0); i < prior.CommittedLines; i++ {
		if _, err := sc.next(); err != nil {
			return nil, fmt.Errorf("%w: journal lost its committed prefix at line %d: %v",
				ErrCorruptJournal, i, err)
		}
	}
	if h, l := sc.sum(); h != prior.Hash || l != prior.Lines {
		return nil, fmt.Errorf("%w: resume prefix hash %x/%d lines, replayed engine has %x/%d",
			ErrReplayDivergence, h, l, prior.Hash, prior.Lines)
	}
	rep := *prior
	rp := &replayer{sc: sc, eng: eng, rep: &rep}
	if err := rp.run(); err != nil {
		return nil, err
	}
	return &rep, nil
}

// ReplayReport is the outcome of a Replay (or Resume): how much of the
// journal committed, what was dropped, and the reconstructed identity.
type ReplayReport struct {
	// Epochs and Requests count re-executed fences and re-applied requests.
	Epochs   uint64
	Requests uint64
	// Checkpoints counts checkpoint records verified against the
	// reconstructed engine; Checkpoint is the last one (nil when none).
	Checkpoints int
	Checkpoint  *Checkpoint
	// CommittedBytes/CommittedLines delimit the committed prefix: recovery
	// truncates the journal file to CommittedBytes, and Resume skips
	// CommittedLines. Everything past them was torn or uncommitted.
	CommittedBytes int64
	CommittedLines uint64
	// TornBytes counts input bytes past the committed prefix: the torn
	// final write plus any complete-but-uncommitted trailing block.
	TornBytes int64
	// DroppedLines counts complete lines inside that dropped tail.
	DroppedLines uint64
	// Hash/Lines are the reconstructed engine's JournalSum at the last
	// commit — equal to the writing engine's at the same point.
	Hash  uint64
	Lines uint64
}

// replayer drives one scanner through one engine, committing epoch blocks.
type replayer struct {
	sc  *scanner
	eng *Engine
	rep *ReplayReport

	// The current uncommitted epoch block's parsed requests.
	pend     []Request
	pendSeqs []uint64
}

// commit marks everything consumed so far as committed.
func (rp *replayer) commit() {
	rp.rep.CommittedBytes = rp.sc.consumed
	rp.rep.CommittedLines = rp.sc.lines
	rp.rep.Hash, rp.rep.Lines = rp.eng.JournalSum()
}

// finish closes out the input at EOF: whatever was consumed past the last
// commit (a torn write, an epoch block with no ledger) is the dropped tail.
func (rp *replayer) finish() {
	rp.rep.TornBytes = rp.sc.consumed + rp.sc.tail - rp.rep.CommittedBytes
	rp.rep.DroppedLines = rp.sc.lines - rp.rep.CommittedLines
}

// verifyHash asserts the reconstructed engine has produced exactly the
// bytes consumed so far. label and epoch locate the check; they are
// formatted only on divergence, so a clean replay builds no per-epoch string.
func (rp *replayer) verifyHash(label string, epoch uint64) error {
	eh, el := rp.eng.JournalSum()
	ih, il := rp.sc.sum()
	if eh != ih || el != il {
		return fmt.Errorf("%w: at %s E%d: journal %x/%d lines, re-execution %x/%d lines",
			ErrReplayDivergence, label, epoch, ih, il, eh, el)
	}
	return nil
}

// run re-executes records until EOF, torn tail, or damage.
func (rp *replayer) run() error {
	for {
		payload, err := rp.sc.next()
		if err == io.EOF {
			rp.finish()
			return nil
		}
		if err != nil {
			return err
		}
		rec, perr := parseRecord(payload)
		if perr != nil {
			return fmt.Errorf("%w: line %d: %v", ErrCorruptJournal, rp.sc.lines, perr)
		}
		switch rec.kind {
		case recHeader:
			return fmt.Errorf("%w: line %d: second header", ErrCorruptJournal, rp.sc.lines)
		case recResponse:
			rp.pend = append(rp.pend, rec.req)
			rp.pendSeqs = append(rp.pendSeqs, rec.seq)
		case recViolation:
			// An engine output inside the block; the fence re-derives it
			// and the hash check proves it matched.
		case recOffering:
			if len(rp.pend) > 0 {
				return fmt.Errorf("%w: line %d: offering change inside an epoch block",
					ErrCorruptJournal, rp.sc.lines)
			}
			rp.eng.SetOffering(rec.frames)
			if err := rp.verifyHash("offering", rec.epoch); err != nil {
				return err
			}
			rp.commit()
		case recLedger:
			if err := rp.fence(rec); err != nil {
				return err
			}
		case recCheckpoint:
			return fmt.Errorf("%w: line %d: checkpoint outside its epoch block",
				ErrCorruptJournal, rp.sc.lines)
		}
	}
}

// fence closes the current epoch block at its ledger record: consume the
// due checkpoint if any, re-execute the fence, verify byte identity, and
// commit. A block whose due checkpoint never made it to the journal is
// uncommitted — the crash tore the epoch's write mid-block — so the whole
// block is dropped, exactly as if its ledger line were missing.
func (rp *replayer) fence(rec record) error {
	var due *Checkpoint
	if k := rp.eng.cfg.CheckpointEvery; k > 0 && rec.epoch%uint64(k) == 0 {
		payload, err := rp.sc.next()
		if err == io.EOF {
			rp.finish()
			return nil // the block never committed; drop it
		}
		if err != nil {
			return err
		}
		ckRec, perr := parseRecord(payload)
		if perr != nil {
			return fmt.Errorf("%w: line %d: %v", ErrCorruptJournal, rp.sc.lines, perr)
		}
		if ckRec.kind != recCheckpoint || ckRec.epoch != rec.epoch {
			return fmt.Errorf("%w: line %d: E%d ledger not followed by its checkpoint",
				ErrCorruptJournal, rp.sc.lines, rec.epoch)
		}
		due = &ckRec.ck
	}

	for i, req := range rp.pend {
		if seq := rp.eng.Enqueue(req); seq != rp.pendSeqs[i] {
			return fmt.Errorf("%w: E%d: request re-enqueued as seq %d, journal says %d",
				ErrReplayDivergence, rec.epoch, seq, rp.pendSeqs[i])
		}
	}
	rp.eng.Step()
	rp.rep.Epochs++
	rp.rep.Requests += uint64(len(rp.pend))
	rp.pend = rp.pend[:0]
	rp.pendSeqs = rp.pendSeqs[:0]

	if err := rp.verifyHash("fence", rec.epoch); err != nil {
		if due != nil {
			if d := rp.eng.Checkpoint().diff(*due); d != "" {
				return fmt.Errorf("%v (checkpoint: %s)", err, d)
			}
		}
		return err
	}
	if due != nil {
		// Byte identity already proves the checkpoint matched; keep the
		// parsed copy as the report's latest verified full state.
		ck := *due
		rp.rep.Checkpoint = &ck
		rp.rep.Checkpoints++
	}
	rp.commit()
	return nil
}

// LatestCheckpoint scans a journal (or any torn prefix of one) and returns
// the last complete checkpoint record without re-executing anything — the
// bounded-time state inspection a recovering daemon reports while replay
// proper is still running. It returns ok=false when no checkpoint has been
// journaled yet. Damage before the torn tail is still ErrCorruptJournal.
func LatestCheckpoint(r io.Reader) (Checkpoint, bool, error) {
	sc := newScanner(r)
	var last Checkpoint
	var ok bool
	for {
		payload, err := sc.next()
		if err == io.EOF {
			return last, ok, nil
		}
		if err != nil {
			return Checkpoint{}, false, err
		}
		rec, perr := parseRecord(payload)
		if perr != nil {
			return Checkpoint{}, false, fmt.Errorf("%w: line %d: %v", ErrCorruptJournal, sc.lines, perr)
		}
		if rec.kind == recCheckpoint {
			last, ok = rec.ck, true
		}
	}
}
