// Package click implements a miniature modular software router in the
// style of Click (Kohler et al. [11]) — the §5.2 endsystem comparison point
// ("333,000 64-byte packets/second … close to 300,000 packets/second with
// the Stochastic Fairness Queuing module").
//
// The Click architecture composes a router from elements connected into a
// graph, with *push* processing from sources downstream and *pull*
// processing upstream from sinks; queues convert between the two
// disciplines. This model keeps exactly that structure:
//
//	FromDevice -> Classifier -> [Queue_0..Queue_k] -> Scheduler -> ToDevice
//	   (push)       (push)        (push|pull)         (pull)       (pull)
//
// so the reproduction can measure, on the same host, what an element-graph
// software path costs per packet next to the ShareStreams split
// (queuing/movement on the host, decisions in hardware).
package click

import (
	"fmt"

	"repro/internal/fairqueue"
)

// Packet is the unit flowing through the element graph.
type Packet struct {
	Flow    int
	Size    int
	Arrival uint64
}

// PushElement receives packets pushed from upstream.
type PushElement interface {
	Push(p Packet)
}

// PullElement yields packets when pulled from downstream.
type PullElement interface {
	Pull() (Packet, bool)
}

// Counter counts packets and bytes through a point in the graph.
type Counter struct {
	Packets uint64
	Bytes   uint64
	next    PushElement
}

// NewCounter builds a counting pass-through element.
func NewCounter(next PushElement) *Counter { return &Counter{next: next} }

// Push implements PushElement.
func (c *Counter) Push(p Packet) {
	c.Packets++
	c.Bytes += uint64(p.Size)
	if c.next != nil {
		c.next.Push(p)
	}
}

// Classifier routes packets to one of its outputs by flow hash (Click's
// Classifier/HashSwitch).
type Classifier struct {
	outputs []PushElement
}

// NewClassifier builds a classifier over the outputs.
func NewClassifier(outputs ...PushElement) (*Classifier, error) {
	if len(outputs) == 0 {
		return nil, fmt.Errorf("click: classifier needs outputs")
	}
	for i, o := range outputs {
		if o == nil {
			return nil, fmt.Errorf("click: nil output %d", i)
		}
	}
	return &Classifier{outputs: outputs}, nil
}

// Push implements PushElement.
func (c *Classifier) Push(p Packet) {
	c.outputs[p.Flow%len(c.outputs)].Push(p)
}

// Queue is the push-to-pull conversion element: a bounded FIFO that drops
// from the tail when full (Click's Queue).
type Queue struct {
	pkts    []Packet
	head    int
	cap     int
	Drops   uint64
	Entered uint64
}

// NewQueue builds a queue with the given capacity.
func NewQueue(capacity int) (*Queue, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("click: queue capacity %d", capacity)
	}
	return &Queue{cap: capacity}, nil
}

// Len returns the queue occupancy.
func (q *Queue) Len() int { return len(q.pkts) - q.head }

// Push implements PushElement.
func (q *Queue) Push(p Packet) {
	if q.Len() >= q.cap {
		q.Drops++
		return
	}
	q.pkts = append(q.pkts, p)
	q.Entered++
}

// Pull implements PullElement.
func (q *Queue) Pull() (Packet, bool) {
	if q.head >= len(q.pkts) {
		return Packet{}, false
	}
	p := q.pkts[q.head]
	q.head++
	if q.head == len(q.pkts) {
		q.pkts = q.pkts[:0]
		q.head = 0
	}
	return p, true
}

// RoundRobinSched pulls from its inputs round robin (Click's RoundRobinSched).
type RoundRobinSched struct {
	inputs []PullElement
	cursor int
}

// NewRoundRobinSched builds the scheduler over the inputs.
func NewRoundRobinSched(inputs ...PullElement) (*RoundRobinSched, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("click: scheduler needs inputs")
	}
	return &RoundRobinSched{inputs: inputs}, nil
}

// Pull implements PullElement.
func (s *RoundRobinSched) Pull() (Packet, bool) {
	for k := 0; k < len(s.inputs); k++ {
		i := (s.cursor + k) % len(s.inputs)
		if p, ok := s.inputs[i].Pull(); ok {
			s.cursor = (i + 1) % len(s.inputs)
			return p, true
		}
	}
	return Packet{}, false
}

// SFQSched adapts the fair-queuing SFQ scheduler as a pull element — the
// configuration of Click's SFQ measurement in §5.2. Packets are pushed into
// the underlying scheduler (one stream per flow bucket) and pulled in
// virtual-start-time order.
type SFQSched struct {
	sfq     *fairqueue.SFQ
	buckets int
	Drops   uint64
	maxQ    int
	perQ    []int
}

// NewSFQSched builds an SFQ element with the given flow-bucket count and
// per-bucket queue bound.
func NewSFQSched(buckets, perBucket int) (*SFQSched, error) {
	if buckets < 1 || perBucket < 1 {
		return nil, fmt.Errorf("click: sfq %d buckets, %d per bucket", buckets, perBucket)
	}
	weights := make([]float64, buckets)
	for i := range weights {
		weights[i] = 1
	}
	s, err := fairqueue.NewSFQ(weights)
	if err != nil {
		return nil, err
	}
	return &SFQSched{sfq: s, buckets: buckets, maxQ: perBucket, perQ: make([]int, buckets)}, nil
}

// Push implements PushElement.
func (s *SFQSched) Push(p Packet) {
	b := p.Flow % s.buckets
	if s.perQ[b] >= s.maxQ {
		s.Drops++
		return
	}
	if err := s.sfq.Enqueue(fairqueue.Packet{Stream: b, Size: p.Size, Arrival: p.Arrival}); err != nil {
		s.Drops++
		return
	}
	s.perQ[b]++
}

// Pull implements PullElement.
func (s *SFQSched) Pull() (Packet, bool) {
	p, ok := s.sfq.Dequeue()
	if !ok {
		return Packet{}, false
	}
	s.perQ[p.Stream]--
	return Packet{Flow: p.Stream, Size: p.Size, Arrival: p.Arrival}, true
}

// ToDevice drains a pull path, counting delivered packets (the sink).
type ToDevice struct {
	src       PullElement
	Delivered uint64
	Bytes     uint64
}

// NewToDevice builds the sink over a pull source.
func NewToDevice(src PullElement) (*ToDevice, error) {
	if src == nil {
		return nil, fmt.Errorf("click: nil source")
	}
	return &ToDevice{src: src}, nil
}

// Run pulls up to n packets (one "transmit ready" interrupt batch).
func (d *ToDevice) Run(n int) int {
	got := 0
	for ; got < n; got++ {
		p, ok := d.src.Pull()
		if !ok {
			break
		}
		d.Delivered++
		d.Bytes += uint64(p.Size)
	}
	return got
}

// Router is the assembled forwarding path used by the §5.2 comparison
// bench: classifier over k queues, a scheduler, a sink.
type Router struct {
	In  PushElement
	Out *ToDevice

	queues []*Queue
	sfq    *SFQSched
}

// NewRouter assembles the graph. With useSFQ the scheduler is the SFQ
// element (the Click+SFQ configuration); otherwise round robin over plain
// queues.
func NewRouter(flowsQueues int, useSFQ bool) (*Router, error) {
	if useSFQ {
		sfq, err := NewSFQSched(flowsQueues, 256)
		if err != nil {
			return nil, err
		}
		out, err := NewToDevice(sfq)
		if err != nil {
			return nil, err
		}
		return &Router{In: sfq, Out: out, sfq: sfq}, nil
	}
	queues := make([]*Queue, flowsQueues)
	pulls := make([]PullElement, flowsQueues)
	pushes := make([]PushElement, flowsQueues)
	for i := range queues {
		q, err := NewQueue(256)
		if err != nil {
			return nil, err
		}
		queues[i] = q
		pulls[i] = q
		pushes[i] = q
	}
	cls, err := NewClassifier(pushes...)
	if err != nil {
		return nil, err
	}
	sched, err := NewRoundRobinSched(pulls...)
	if err != nil {
		return nil, err
	}
	out, err := NewToDevice(sched)
	if err != nil {
		return nil, err
	}
	return &Router{In: cls, Out: out, queues: queues}, nil
}
