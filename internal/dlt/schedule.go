package dlt

import (
	"fmt"
	"sort"
)

// SpanKind distinguishes the two activity types in a schedule timeline.
type SpanKind int

const (
	// Comm is a bus transfer of a load fraction to a processor.
	Comm SpanKind = iota
	// Comp is a processor executing a load fraction.
	Comp
)

// String returns "comm" or "comp".
func (k SpanKind) String() string {
	if k == Comm {
		return "comm"
	}
	return "comp"
}

// Span is one contiguous activity in a schedule: processor Proc either
// receives (Comm) or executes (Comp) the load fraction Frac during
// [Start, End). Round is 0 for single-round schedules.
type Span struct {
	Proc     int
	Kind     SpanKind
	Start    float64
	End      float64
	Frac     float64
	Round    int
	BusOwner bool // true when the span occupies the shared bus
}

// Timeline is a full schedule: the spans of every processor plus the
// realized makespan. It is what the Gantt renderer draws to reproduce
// Figures 1–3.
type Timeline struct {
	Instance Instance
	Spans    []Span
	Makespan float64
}

// FinishTimes returns the last activity end per processor.
func (tl Timeline) FinishTimes() []float64 {
	t := make([]float64, tl.Instance.M())
	for _, s := range tl.Spans {
		if s.End > t[s.Proc] {
			t[s.Proc] = s.End
		}
	}
	return t
}

// BusSpans returns the spans that occupy the bus, sorted by start time.
// The one-port model requires them to be non-overlapping; tests assert it.
func (tl Timeline) BusSpans() []Span {
	var out []Span
	for _, s := range tl.Spans {
		if s.BusOwner {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Schedule constructs the explicit single-round timeline realizing the
// finishing-time equations (1)–(3) for allocation a: bus transfers are
// issued back-to-back in index order (any order is optimal by
// Theorem 2.2) and each processor computes as soon as its fraction has
// arrived. The NCP-NFE originator computes only after all its transfers
// complete; the NCP-FE originator computes from time zero.
func Schedule(in Instance, a Allocation) (Timeline, error) {
	if err := in.Validate(); err != nil {
		return Timeline{}, err
	}
	m := in.M()
	if len(a) != m {
		return Timeline{}, fmt.Errorf("dlt: allocation has %d entries, want %d", len(a), m)
	}
	// Every class issues at most one transfer and one computation per
	// processor.
	tl := Timeline{Instance: in.Clone(), Spans: make([]Span, 0, 2*m)}
	bus := 0.0
	addComm := func(p int, frac float64) float64 {
		end := bus + in.Z*frac
		tl.Spans = append(tl.Spans, Span{Proc: p, Kind: Comm, Start: bus, End: end, Frac: frac, BusOwner: true})
		bus = end
		return end
	}
	addComp := func(p int, start, frac float64) float64 {
		end := start + in.W[p]*frac
		tl.Spans = append(tl.Spans, Span{Proc: p, Kind: Comp, Start: start, End: end, Frac: frac})
		return end
	}
	switch in.Network {
	case CP:
		for i := 0; i < m; i++ {
			arr := addComm(i, a[i])
			addComp(i, arr, a[i])
		}
	case NCPFE:
		addComp(0, 0, a[0]) // front end: originator computes immediately
		for i := 1; i < m; i++ {
			arr := addComm(i, a[i])
			addComp(i, arr, a[i])
		}
	case NCPNFE:
		for i := 0; i < m-1; i++ {
			arr := addComm(i, a[i])
			addComp(i, arr, a[i])
		}
		// No front end: the originator computes after its last transfer.
		addComp(m-1, bus, a[m-1])
	}
	for _, s := range tl.Spans {
		if s.End > tl.Makespan {
			tl.Makespan = s.End
		}
	}
	return tl, nil
}
