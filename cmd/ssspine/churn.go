package main

import (
	"math/rand"

	"repro/internal/attr"
	"repro/internal/ctlplane"
	"repro/internal/decision"
	"repro/internal/shard"
)

// churn is the harness's seeded control-request generator. It is the only
// source of randomness in a workload: the engine (or daemon) under test sees
// nothing but the requests it produces. It tracks the admitted population
// from the responses it is shown, so known-stream requests hit real streams
// and the deliberately invalid ones (unknown streams, class-changing
// retunes, oversized pools, double drains) stay a fixed share of the mix.
type churn struct {
	rng     *rand.Rand
	shards  int
	target  int    // population the admit/evict mix steers towards
	drained []bool // per shard, as the fence last answered
	ids     []shard.StreamID
	pos     map[shard.StreamID]int // never iterated: index into ids
	class   map[shard.StreamID]attr.Class
	next    shard.StreamID
}

func newChurn(seed int64, shards, target int) *churn {
	return &churn{
		rng:     rand.New(rand.NewSource(seed)),
		shards:  shards,
		target:  target,
		drained: make([]bool, shards),
		pos:     make(map[shard.StreamID]int),
		class:   make(map[shard.StreamID]attr.Class),
		next:    1,
	}
}

// churnClasses is every discipline the DWCS datapath hosts.
var churnClasses = [...]attr.Class{
	attr.WindowConstrained, attr.EDF, attr.StaticPriority, attr.FairTag,
}

// randomSpec synthesizes a valid spec of class c.
func randomSpec(rng *rand.Rand, c attr.Class) attr.Spec {
	switch c {
	case attr.WindowConstrained:
		return attr.Spec{
			Class:      attr.WindowConstrained,
			Period:     uint16(2 + rng.Intn(14)),
			Constraint: attr.Constraint{Num: uint8(rng.Intn(3)), Den: uint8(3 + rng.Intn(4))},
		}
	case attr.StaticPriority:
		return attr.Spec{Class: attr.StaticPriority, Priority: uint16(rng.Intn(1024))}
	case attr.FairTag:
		return attr.Spec{Class: attr.FairTag, Weight: uint16(1 + rng.Intn(8))}
	default:
		return attr.Spec{Class: attr.EDF, Period: uint16(1 + rng.Intn(15))}
	}
}

// admit returns an admission of a fresh stream of class c.
func (c *churn) admit(class attr.Class) ctlplane.Request {
	id := c.next
	c.next++
	c.class[id] = class
	return ctlplane.Request{Op: ctlplane.OpAdmit, Stream: id, Spec: randomSpec(c.rng, class)}
}

func (c *churn) pick() (shard.StreamID, bool) {
	if len(c.ids) == 0 {
		return 0, false
	}
	return c.ids[c.rng.Intn(len(c.ids))], true
}

// unknown is a stream ID the generator never admits.
func (c *churn) unknown() shard.StreamID { return shard.StreamID(1<<40 + c.rng.Intn(100)) }

// request draws one control request. Admissions and evictions steer the
// population towards its target — below it the turnover share of the mix
// admits, at or above it evicts — because a free random walk would wander
// across the whole fabric and make a run's load depend on its seed. For the
// same reason a restart goes to a drained shard when there is one: a drain
// then lasts two or three epochs, about a twentieth of shard-epochs are
// drained, and the share hardly moves from seed to seed.
func (c *churn) request() ctlplane.Request {
	known := func(req ctlplane.Request) ctlplane.Request {
		if id, ok := c.pick(); ok {
			req.Stream = id
		} else {
			req.Stream = c.unknown()
		}
		return req
	}
	switch roll := c.rng.Intn(100); {
	case roll < 44:
		if len(c.ids) < c.target {
			return c.admit(churnClasses[c.rng.Intn(len(churnClasses))])
		}
		return known(ctlplane.Request{Op: ctlplane.OpEvict})
	case roll < 46: // unknown stream: error path
		return ctlplane.Request{Op: ctlplane.OpEvict, Stream: c.unknown()}
	case roll < 72:
		req := known(ctlplane.Request{Op: ctlplane.OpRetune})
		req.Spec = randomSpec(c.rng, c.class[req.Stream])
		return req
	case roll < 75: // class-changing retune: error path
		req := known(ctlplane.Request{Op: ctlplane.OpRetune})
		req.Spec = randomSpec(c.rng, churnClasses[(int(c.class[req.Stream])+1)%len(churnClasses)])
		return req
	case roll < 85:
		req := known(ctlplane.Request{Op: ctlplane.OpSetProgram, Program: decision.ProgramSTFQ})
		if c.rng.Intn(2) == 0 {
			req.Program = decision.ProgramDWCS
		}
		return req
	case roll < 94: // sometimes past the physical slack: error path
		return ctlplane.Request{Op: ctlplane.OpResizePool, Shard: c.rng.Intn(c.shards), Burst: c.rng.Intn(140)}
	case roll < 95: // double drains err by construction
		return ctlplane.Request{Op: ctlplane.OpDrainShard, Shard: c.rng.Intn(c.shards)}
	default: // with nothing drained this restarts a running shard: error path
		shard := c.rng.Intn(c.shards)
		for k, d := range c.drained {
			if d {
				shard = k
				break
			}
		}
		return ctlplane.Request{Op: ctlplane.OpRestartShard, Shard: shard}
	}
}

// digest updates the population from one fence's responses.
func (c *churn) digest(resps []ctlplane.Response) {
	for _, r := range resps {
		if !r.OK() {
			if r.Op == ctlplane.OpAdmit {
				delete(c.class, r.Stream) // refused (home shard full or drained)
			}
			continue
		}
		switch r.Op {
		case ctlplane.OpAdmit:
			if _, tracked := c.pos[r.Stream]; !tracked {
				c.pos[r.Stream] = len(c.ids)
				c.ids = append(c.ids, r.Stream)
			}
		case ctlplane.OpEvict:
			i, ok := c.pos[r.Stream]
			if !ok {
				continue
			}
			last := len(c.ids) - 1
			c.ids[i] = c.ids[last]
			c.pos[c.ids[i]] = i
			c.ids = c.ids[:last]
			delete(c.pos, r.Stream)
			delete(c.class, r.Stream)
		case ctlplane.OpDrainShard:
			c.drained[r.Shard] = true
		case ctlplane.OpRestartShard:
			c.drained[r.Shard] = false
		default:
		}
	}
}

// running is how many shards the next epoch will step.
func (c *churn) running() int {
	n := 0
	for _, d := range c.drained {
		if !d {
			n++
		}
	}
	return n
}
