// Package fairqueue implements the software fair-queuing schedulers the
// paper compares against and builds on:
//
//   - WFQ — weighted fair queuing (Demers, Keshav & Shenker [6]): per-packet
//     virtual finish times against a system virtual clock. The virtual
//     clock here is the standard self-clocked approximation (advanced from
//     the packet in service), avoiding the exact GPS simulation, which is
//     the form practical systems implement.
//   - SFQ — start-time fair queuing, the discipline behind Click's
//     Stochastic Fairness Queuing comparison point in §5.2.
//   - DRR — deficit round robin (Shreedhar & Varghese), the discipline the
//     router-plugins comparison point [5] measures.
//
// All three expose the same Scheduler interface over per-stream FIFO
// queues, so the fairness and throughput benches can sweep disciplines.
// Service tags computed by WFQ/SFQ are also what the Queue Manager loads
// into fair-tag stream-slots when mapping fair queuing onto the
// ShareStreams hardware ("the architecture can order N service-tags in
// log₂N cycles").
package fairqueue

import (
	"fmt"
)

// Packet is one frame owned by a fair-queuing scheduler.
type Packet struct {
	Stream  int
	Size    int // bytes
	Arrival uint64
	// Tag is the service tag the scheduler assigned at enqueue (WFQ:
	// virtual finish time; SFQ: virtual start time; DRR leaves it 0).
	Tag float64
}

// Scheduler is a work-conserving packet scheduler over per-stream queues.
type Scheduler interface {
	// Enqueue admits a packet to its stream's queue.
	Enqueue(p Packet) error
	// Dequeue picks and removes the next packet to transmit.
	Dequeue() (Packet, bool)
	// Backlogged returns the number of queued packets.
	Backlogged() int
	// Name returns the discipline name.
	Name() string
}

// fifo is a simple per-stream packet FIFO.
type fifo struct {
	pkts []Packet
	head int
}

func (q *fifo) push(p Packet) { q.pkts = append(q.pkts, p) }

func (q *fifo) empty() bool { return q.head >= len(q.pkts) }

func (q *fifo) front() *Packet { return &q.pkts[q.head] }

func (q *fifo) pop() Packet {
	p := q.pkts[q.head]
	q.head++
	if q.head == len(q.pkts) { // reset storage once drained
		q.pkts = q.pkts[:0]
		q.head = 0
	}
	return p
}

// ---------------------------------------------------------------------------
// WFQ

// WFQ is a weighted fair queuing scheduler with self-clocked virtual time.
type WFQ struct {
	weights []float64
	queues  []fifo
	finish  []float64 // last finish tag per stream
	vtime   float64
	backlog int
}

// NewWFQ builds a WFQ scheduler; weights[i] is stream i's share (> 0).
func NewWFQ(weights []float64) (*WFQ, error) {
	if err := checkWeights(weights); err != nil {
		return nil, err
	}
	return &WFQ{
		weights: append([]float64(nil), weights...),
		queues:  make([]fifo, len(weights)),
		finish:  make([]float64, len(weights)),
	}, nil
}

// Name implements Scheduler.
func (w *WFQ) Name() string { return "WFQ" }

// Enqueue stamps the packet with its virtual finish time
// F = max(F_prev, V) + size/weight and queues it.
func (w *WFQ) Enqueue(p Packet) error {
	if p.Stream < 0 || p.Stream >= len(w.queues) {
		return fmt.Errorf("fairqueue: stream %d out of range", p.Stream)
	}
	if p.Size <= 0 {
		return fmt.Errorf("fairqueue: packet size %d", p.Size)
	}
	start := w.finish[p.Stream]
	if w.vtime > start {
		start = w.vtime
	}
	w.finish[p.Stream] = start + float64(p.Size)/w.weights[p.Stream]
	p.Tag = w.finish[p.Stream]
	w.queues[p.Stream].push(p)
	w.backlog++
	return nil
}

// Dequeue transmits the packet with the least finish tag and advances the
// virtual clock to it (self-clocking).
func (w *WFQ) Dequeue() (Packet, bool) {
	best := -1
	for i := range w.queues {
		if w.queues[i].empty() {
			continue
		}
		if best == -1 || w.queues[i].front().Tag < w.queues[best].front().Tag {
			best = i
		}
	}
	if best == -1 {
		return Packet{}, false
	}
	p := w.queues[best].pop()
	w.vtime = p.Tag
	w.backlog--
	return p, true
}

// Backlogged implements Scheduler.
func (w *WFQ) Backlogged() int { return w.backlog }

// ---------------------------------------------------------------------------
// SFQ

// SFQ is a start-time fair queuing scheduler: packets are stamped with
// virtual start times S = max(v, F_prev); F = S + size/weight; the system
// virtual time v follows the start tag of the packet in service.
type SFQ struct {
	weights []float64
	queues  []fifo
	finish  []float64
	vtime   float64
	backlog int
}

// NewSFQ builds an SFQ scheduler.
func NewSFQ(weights []float64) (*SFQ, error) {
	if err := checkWeights(weights); err != nil {
		return nil, err
	}
	return &SFQ{
		weights: append([]float64(nil), weights...),
		queues:  make([]fifo, len(weights)),
		finish:  make([]float64, len(weights)),
	}, nil
}

// Name implements Scheduler.
func (s *SFQ) Name() string { return "SFQ" }

// Enqueue stamps the packet with its virtual start time and queues it.
func (s *SFQ) Enqueue(p Packet) error {
	if p.Stream < 0 || p.Stream >= len(s.queues) {
		return fmt.Errorf("fairqueue: stream %d out of range", p.Stream)
	}
	if p.Size <= 0 {
		return fmt.Errorf("fairqueue: packet size %d", p.Size)
	}
	start := s.finish[p.Stream]
	if s.vtime > start {
		start = s.vtime
	}
	s.finish[p.Stream] = start + float64(p.Size)/s.weights[p.Stream]
	p.Tag = start
	s.queues[p.Stream].push(p)
	s.backlog++
	return nil
}

// Dequeue transmits the packet with the least start tag.
func (s *SFQ) Dequeue() (Packet, bool) {
	best := -1
	for i := range s.queues {
		if s.queues[i].empty() {
			continue
		}
		if best == -1 || s.queues[i].front().Tag < s.queues[best].front().Tag {
			best = i
		}
	}
	if best == -1 {
		return Packet{}, false
	}
	p := s.queues[best].pop()
	s.vtime = p.Tag
	s.backlog--
	return p, true
}

// Backlogged implements Scheduler.
func (s *SFQ) Backlogged() int { return s.backlog }

// ---------------------------------------------------------------------------
// DRR

// DRR is a deficit round robin scheduler: each backlogged stream receives
// quantum·weight deficit per round and transmits head packets while its
// deficit covers them.
type DRR struct {
	weights []float64
	queues  []fifo
	deficit []float64
	quantum float64
	active  []int // round-robin list of backlogged streams
	cursor  int
	topped  bool // the stream at cursor already received this turn's quantum
	backlog int
}

// NewDRR builds a DRR scheduler; quantum is the base per-round byte
// allowance (scaled by each stream's weight). A quantum at least the MTU
// keeps the discipline O(1) per packet.
func NewDRR(weights []float64, quantum float64) (*DRR, error) {
	if err := checkWeights(weights); err != nil {
		return nil, err
	}
	if quantum <= 0 {
		return nil, fmt.Errorf("fairqueue: quantum %v", quantum)
	}
	return &DRR{
		weights: append([]float64(nil), weights...),
		queues:  make([]fifo, len(weights)),
		deficit: make([]float64, len(weights)),
		quantum: quantum,
	}, nil
}

// Name implements Scheduler.
func (d *DRR) Name() string { return "DRR" }

// Enqueue queues the packet, activating its stream if needed.
func (d *DRR) Enqueue(p Packet) error {
	if p.Stream < 0 || p.Stream >= len(d.queues) {
		return fmt.Errorf("fairqueue: stream %d out of range", p.Stream)
	}
	if p.Size <= 0 {
		return fmt.Errorf("fairqueue: packet size %d", p.Size)
	}
	if d.queues[p.Stream].empty() {
		d.active = append(d.active, p.Stream)
	}
	d.queues[p.Stream].push(p)
	d.backlog++
	return nil
}

// Dequeue serves the round-robin list: when the cursor arrives at a stream
// its deficit is topped up by quantum·weight once; head packets are served
// while the deficit covers them; then the turn ends and the residual
// deficit carries to the next round (forfeited if the queue drains).
func (d *DRR) Dequeue() (Packet, bool) {
	if d.backlog == 0 {
		return Packet{}, false
	}
	for {
		if d.cursor >= len(d.active) {
			d.cursor = 0
		}
		i := d.active[d.cursor]
		q := &d.queues[i]
		if !d.topped {
			d.deficit[i] += d.quantum * d.weights[i]
			d.topped = true
		}
		if d.deficit[i] >= float64(q.front().Size) {
			p := q.pop()
			d.deficit[i] -= float64(p.Size)
			d.backlog--
			if q.empty() {
				// Stream leaves the active list; its residual
				// deficit is forfeited (standard DRR).
				d.deficit[i] = 0
				d.active = append(d.active[:d.cursor], d.active[d.cursor+1:]...)
				d.topped = false
				if d.cursor >= len(d.active) {
					d.cursor = 0
				}
			}
			return p, true
		}
		// Deficit exhausted: this stream's turn ends.
		d.cursor++
		d.topped = false
	}
}

// Backlogged implements Scheduler.
func (d *DRR) Backlogged() int { return d.backlog }

func checkWeights(weights []float64) error {
	if len(weights) == 0 {
		return fmt.Errorf("fairqueue: no streams")
	}
	for i, w := range weights {
		if w <= 0 {
			return fmt.Errorf("fairqueue: stream %d weight %v must be positive", i, w)
		}
	}
	return nil
}
