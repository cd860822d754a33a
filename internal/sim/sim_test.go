package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := New()
	var order []string
	if err := e.At(3, func() { order = append(order, "c") }); err != nil {
		t.Fatal(err)
	}
	if err := e.At(1, func() { order = append(order, "a") }); err != nil {
		t.Fatal(err)
	}
	if err := e.At(2, func() { order = append(order, "b") }); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := order; got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("order = %v", got)
	}
	if e.Now() != 3 {
		t.Errorf("final time = %v, want 3", e.Now())
	}
	if e.Processed() != 3 {
		t.Errorf("processed = %d, want 3", e.Processed())
	}
}

func TestEngineTieBreaksInSchedulingOrder(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		if err := e.At(5, func() { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if !sort.IntsAreSorted(order) {
		t.Errorf("simultaneous events fired out of scheduling order: %v", order)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := New()
	var trace []float64
	if err := e.At(1, func() {
		trace = append(trace, e.Now())
		if err := e.After(2, func() { trace = append(trace, e.Now()) }); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(trace) != 2 || trace[0] != 1 || trace[1] != 3 {
		t.Errorf("trace = %v, want [1 3]", trace)
	}
}

func TestEngineRejectsPastAndInvalid(t *testing.T) {
	e := New()
	if err := e.At(1, func() {}); err != nil {
		t.Fatal(err)
	}
	for e.Step() {
	}
	if err := e.At(0.5, func() {}); err == nil {
		t.Error("scheduling into the past accepted")
	}
	if err := e.At(math.NaN(), func() {}); err == nil {
		t.Error("NaN time accepted")
	}
	if err := e.At(math.Inf(1), func() {}); err == nil {
		t.Error("infinite time accepted")
	}
	if err := e.At(2, nil); err == nil {
		t.Error("nil action accepted")
	}
	if err := e.After(-1, func() {}); err == nil {
		t.Error("negative delay accepted")
	}
	if err := e.After(math.NaN(), func() {}); err == nil {
		t.Error("NaN delay accepted")
	}
}

func TestEngineSameInstantScheduling(t *testing.T) {
	e := New()
	ran := false
	if err := e.At(1, func() {
		// Scheduling at the current instant must be allowed.
		if err := e.After(0, func() { ran = true }); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("same-instant event did not run")
	}
}

func TestEngineRunBound(t *testing.T) {
	e := New()
	var keepGoing func()
	keepGoing = func() {
		if err := e.After(1, keepGoing); err != nil {
			t.Error(err)
		}
	}
	if err := e.At(0, keepGoing); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(100); err == nil {
		t.Error("unbounded self-scheduling not caught")
	}
}

func TestResourceSerializes(t *testing.T) {
	r := NewResource("bus")
	s1, e1, err := r.Reserve(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != 0 || e1 != 2 {
		t.Errorf("first reservation [%v,%v), want [0,2)", s1, e1)
	}
	// Requested earlier than the resource frees: pushed back.
	s2, e2, err := r.Reserve(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s2 != 2 || e2 != 5 {
		t.Errorf("second reservation [%v,%v), want [2,5)", s2, e2)
	}
	// Requested after it frees: granted at request time.
	s3, e3, err := r.Reserve(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s3 != 10 || e3 != 11 {
		t.Errorf("third reservation [%v,%v), want [10,11)", s3, e3)
	}
	// The resource is free from 11: a fourth reservation asked for at 0
	// starts there.
	if s4, e4, err := r.Reserve(0, 1); err != nil || s4 != 11 || e4 != 12 {
		t.Errorf("fourth reservation [%v,%v) (%v), want [11,12)", s4, e4, err)
	}
	if _, _, err := r.Reserve(0, -1); err == nil {
		t.Error("negative duration accepted")
	}
	if _, _, err := r.Reserve(math.NaN(), 1); err == nil {
		t.Error("NaN earliest accepted")
	}
}

// Property: a random set of reservations never overlaps and is granted in
// FIFO order.
func TestQuickResourceNoOverlap(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%50
		r := NewResource("bus")
		prevEnd := math.Inf(-1)
		for i := 0; i < n; i++ {
			start, end, err := r.Reserve(rng.Float64()*10, rng.Float64())
			if err != nil {
				return false
			}
			if start < prevEnd || end < start {
				return false
			}
			prevEnd = end
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: events run in non-decreasing time order regardless of the
// scheduling order.
func TestQuickEngineMonotoneTime(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%100
		e := New()
		var times []float64
		for i := 0; i < n; i++ {
			if err := e.At(rng.Float64()*100, func() { times = append(times, e.Now()) }); err != nil {
				return false
			}
		}
		if err := e.Run(0); err != nil {
			return false
		}
		return sort.Float64sAreSorted(times) && len(times) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
