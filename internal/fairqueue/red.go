package fairqueue

import (
	"fmt"
	"math/rand"
)

// RED implements Random Early Detection queue management (Floyd & Jacobson)
// — the active-queue-management policy §5.2's 10 Gbps line-card comparison
// point (Cisco GSR: DRR + RED) pairs with its scheduler. ShareStreams
// provides per-flow queuing and DWCS instead; the bench contrasts drop
// behaviour under congestion.
//
// The gentle variant is implemented: the drop probability ramps linearly
// from 0 at MinTh to MaxP at MaxTh, then from MaxP to 1 at 2·MaxTh, using
// an exponentially weighted moving average of the queue length and the
// standard count-since-last-drop correction.
type RED struct {
	// MinTh and MaxTh are the average-queue thresholds (packets).
	MinTh, MaxTh float64
	// MaxP is the drop probability at MaxTh.
	MaxP float64
	// Wq is the EWMA weight for the average queue length (typ. 0.002).
	Wq float64

	avg   float64
	count int // packets since the last drop while in the random region
	rng   *rand.Rand
}

// NewRED builds a RED controller with a deterministic seed (the simulation
// is reproducible end to end).
func NewRED(minTh, maxTh, maxP, wq float64, seed int64) (*RED, error) {
	if minTh <= 0 || maxTh <= minTh {
		return nil, fmt.Errorf("fairqueue: RED thresholds %v/%v", minTh, maxTh)
	}
	if maxP <= 0 || maxP > 1 {
		return nil, fmt.Errorf("fairqueue: RED maxP %v", maxP)
	}
	if wq <= 0 || wq > 1 {
		return nil, fmt.Errorf("fairqueue: RED wq %v", wq)
	}
	return &RED{MinTh: minTh, MaxTh: maxTh, MaxP: maxP, Wq: wq, count: -1, rng: rand.New(rand.NewSource(seed))}, nil
}

// OnArrival updates the average with the instantaneous queue length and
// decides whether the arriving packet should be dropped.
func (r *RED) OnArrival(queueLen int) bool {
	r.avg = (1-r.Wq)*r.avg + r.Wq*float64(queueLen)
	switch {
	case r.avg < r.MinTh:
		r.count = -1
		return false
	case r.avg >= 2*r.MaxTh:
		r.count = 0
		return true
	}
	// Random-drop region (gentle above MaxTh).
	var pb float64
	if r.avg < r.MaxTh {
		pb = r.MaxP * (r.avg - r.MinTh) / (r.MaxTh - r.MinTh)
	} else {
		pb = r.MaxP + (1-r.MaxP)*(r.avg-r.MaxTh)/r.MaxTh
	}
	r.count++
	pa := pb
	if denom := 1 - float64(r.count)*pb; denom > 0 {
		pa = pb / denom
	} else {
		pa = 1
	}
	if r.rng.Float64() < pa {
		r.count = 0
		return true
	}
	return false
}
