package core

// StarMechanism extends DLS-BL to the star network of the paper's future
// work (dlt.StarInstance with heterogeneous links). The m strategic
// agents are the children; the link times Z are public infrastructure
// parameters (measurable by anyone on the wire, so not private values),
// and the root is the load originator acting for the user with RootW = 0.
//
// The allocation rule serves children in the z-optimal order (which
// depends only on the public Z, never on the bids) and splits the load by
// the equal-finish closed form for the bid profile. Because that
// composite rule is exactly makespan-optimal for every reported profile,
// the compensation-and-bonus payments carry over and so does the
// strategyproofness argument of Theorem 3.1:
//
//	C_i = α_i(b)·w̃_i
//	B_i = T*(b_{-i}) − T(α(b), (b_{-i}, w̃_i))
//	U_i = B_i
//
// It is the two-parameter mechanism (TwoParamStarMechanism) with every
// link reported truthfully: a public link is bid and observed as it is.
type StarMechanism struct {
	// Z are the public per-unit link times, one per child, in agent
	// index order.
	Z []float64
}

// Run executes the star mechanism on a bid profile and the observed
// execution values. The returned Outcome uses the same fields as the bus
// mechanism; Alloc is in agent index order (not service order).
func (m StarMechanism) Run(bids, exec []float64) (*Outcome, error) {
	return TwoParamStarMechanism{}.RunTwoParam(bids, m.Z, exec, m.Z)
}
