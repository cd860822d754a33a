// Package sim is a minimal deterministic discrete-event engine driving
// the virtual time of the bus-network simulation: communication spans of
// length α·z, computation spans of length α·w̃, and the protocol phases
// between them. Determinism matters — two runs with the same seed must
// produce identical timelines — so simultaneous events fire in scheduling
// order.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
)

// Engine is a discrete-event executor. The zero value is not ready; use
// New.
type Engine struct {
	now    float64
	queue  eventHeap
	nextID int
}

// New returns an engine at virtual time zero.
func New() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() float64 { return e.now }

// At schedules action to run at absolute virtual time t. Scheduling into
// the past is an error; scheduling at the current instant is allowed and
// runs after already-queued events at the same time.
func (e *Engine) At(t float64, action func()) error {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return fmt.Errorf("sim: invalid event time %v", t)
	}
	if t < e.now {
		return fmt.Errorf("sim: cannot schedule at %v, now is %v", t, e.now)
	}
	if action == nil {
		return errors.New("sim: nil action")
	}
	heap.Push(&e.queue, &event{time: t, seq: e.nextID, action: action})
	e.nextID++
	return nil
}

// After schedules action d time units from now; d must be non-negative.
func (e *Engine) After(d float64, action func()) error {
	if math.IsNaN(d) || d < 0 {
		return fmt.Errorf("sim: invalid delay %v", d)
	}
	return e.At(e.now+d, action)
}

// Step executes the single earliest event. It returns false when the
// queue is empty.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*event)
	e.now = ev.time
	ev.action()
	return true
}

// Run executes events until the queue drains. maxEvents bounds runaway
// simulations; Run returns an error if the bound is hit.
func (e *Engine) Run(maxEvents int) error {
	for n := 0; ; n++ {
		if maxEvents > 0 && n >= maxEvents {
			return fmt.Errorf("sim: exceeded %d events with %d still pending", maxEvents, len(e.queue))
		}
		if !e.Step() {
			return nil
		}
	}
}

// event is one scheduled action. seq breaks time ties deterministically in
// scheduling order.
type event struct {
	time   float64
	seq    int
	action func()
}

// eventHeap is the engine's queue: a container/heap of events ordered
// by time, then by scheduling order.
type eventHeap []*event

// Len is the number of queued events (heap.Interface).
func (h eventHeap) Len() int { return len(h) }

// Less orders events by time, breaking ties by scheduling order
// (heap.Interface).
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}

// Swap exchanges two queued events (heap.Interface).
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

// Push appends an event; container/heap restores the order
// (heap.Interface).
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }

// Pop removes the last event, which container/heap has just moved
// there, and clears its slot (heap.Interface).
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Resource models a serially shared facility such as the one-port bus: at
// most one occupant at a time, FIFO order of reservation.
type Resource struct {
	free float64 // time the resource next becomes free
	name string
}

// NewResource names a resource; the name appears in error messages only.
func NewResource(name string) *Resource { return &Resource{name: name} }

// Reserve books the resource for a span of the given duration starting no
// earlier than `earliest`, returning the span's [start, end). Reservations
// are granted in call order, which matches the deterministic scheduling
// order of the engine.
func (r *Resource) Reserve(earliest, duration float64) (start, end float64, err error) {
	if math.IsNaN(earliest) || math.IsNaN(duration) || duration < 0 {
		return 0, 0, fmt.Errorf("sim: invalid reservation on %s (earliest=%v, duration=%v)", r.name, earliest, duration)
	}
	start = math.Max(earliest, r.free)
	end = start + duration
	r.free = end
	return start, end, nil
}
