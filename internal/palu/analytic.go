package palu

import (
	"errors"
	"fmt"
	"math"

	"hybridplaw/internal/specialfn"
)

// Observation couples underlying parameters with a window-size parameter
// p ∈ [0, 1]: the probability that an underlying edge appears in the
// observed network. All Section IV predictions are methods on Observation.
type Observation struct {
	Params
	// P is the edge-sampling probability ("As the window size increases,
	// p will get closer to 1").
	P float64
}

// NewObservation validates and returns an observation configuration.
func NewObservation(params Params, p float64) (Observation, error) {
	if err := params.Validate(); err != nil {
		return Observation{}, err
	}
	if math.IsNaN(p) || p < 0 || p > 1 {
		return Observation{}, fmt.Errorf("palu: window parameter p=%v outside [0,1]", p)
	}
	return Observation{Params: params, P: p}, nil
}

// Mu returns μ = λp, the Poisson mean of observed star leaf counts
// (Section V: Bin(Po(λ), p) = Po(λp)).
func (o Observation) Mu() float64 { return o.Lambda * o.P }

// zetaAlpha returns ζ(α); alpha is validated > 1 at construction.
func (o Observation) zetaAlpha() float64 { return specialfn.MustZeta(o.Alpha) }

// VisibleFraction returns the paper's V: the expected fraction of
// underlying nodes that appear in the observed network,
//
//	V = C p^{α−1} / ((α−1) ζ(α)) + L p + U (1 + λp − e^{−λp}).
//
// This uses the paper's integral approximation for the core term; see
// VisibleFractionExact for the exact summation.
func (o Observation) VisibleFraction() float64 {
	core := o.C * math.Pow(o.P, o.Alpha-1) / ((o.Alpha - 1) * o.zetaAlpha())
	return core + o.L*o.P + o.U*specialfn.Expm1Ratio(o.Mu())
}

// coreVisibleExact returns Σ_d d^{−α}/ζ(α) (1−(1−p)^d): the exact
// probability that a zeta(α)-degree core node keeps at least one edge.
func (o Observation) coreVisibleExact() float64 {
	if o.P == 0 {
		return 0
	}
	z := o.zetaAlpha()
	var s float64
	q := 1 - o.P
	// The summand decays as d^{-α}; 1e6 terms bound the truncation error
	// below 1e-9 for α ≥ 1.5 and the tail is added via zeta difference
	// (where (1−q^d) ≈ 1).
	const cut = 1 << 16
	qd := q
	for d := 1; d <= cut; d++ {
		s += math.Pow(float64(d), -o.Alpha) * (1 - qd)
		qd *= q
	}
	// Tail: for d > cut, (1-(1-p)^d) is 1 to double precision when p>0.
	tail, err := specialfn.HurwitzZeta(o.Alpha, float64(cut+1))
	if err == nil {
		s += tail
	}
	return s / z
}

// VisibleFractionExact returns V with the core term computed by exact
// summation instead of the paper's p^{α−1}/((α−1)ζ(α)) approximation.
func (o Observation) VisibleFractionExact() float64 {
	return o.C*o.coreVisibleExact() + o.L*o.P + o.U*specialfn.Expm1Ratio(o.Mu())
}

// Fractions are the Section IV predictions for the observed network, all
// normalized by total observed nodes.
type Fractions struct {
	// Core is (# core nodes)/(total # nodes).
	Core float64
	// Leaves is (# leaf nodes)/(total # nodes).
	Leaves float64
	// UnattachedNodes is (# unattached nodes)/(total # nodes).
	UnattachedNodes float64
	// UnattachedLinks is (# unattached links)/(total # nodes): star
	// centers observed with exactly one leaf.
	UnattachedLinks float64
	// DegreeOne is (# degree-1 nodes)/(total # nodes).
	DegreeOne float64
}

// ExpectedFractions evaluates the Section IV ratio predictions. When
// exact is true the visible-fraction normalizer V uses the exact core
// visibility sum (recommended for validation against simulation); when
// false it uses the paper's approximation.
func (o Observation) ExpectedFractions(exact bool) Fractions {
	v := o.VisibleFraction()
	coreSeen := o.C * math.Pow(o.P, o.Alpha-1) / ((o.Alpha - 1) * o.zetaAlpha())
	if exact {
		v = o.VisibleFractionExact()
		coreSeen = o.C * o.coreVisibleExact()
	}
	if v == 0 {
		return Fractions{}
	}
	mu := o.Mu()
	return Fractions{
		Core:            coreSeen / v,
		Leaves:          o.L * o.P / v,
		UnattachedNodes: o.U * specialfn.Expm1Ratio(mu) / v,
		UnattachedLinks: o.U * mu * math.Exp(-mu) / v,
		DegreeOne:       o.degreeOneRaw(exact) / v,
	}
}

// degreeOneRaw returns the un-normalized degree-1 density:
// C p^α/ζ(α) + L p + U λp (1 + e^{−λp}).
func (o Observation) degreeOneRaw(exact bool) float64 {
	mu := o.Mu()
	core := o.C * math.Pow(o.P, o.Alpha) / o.zetaAlpha()
	if exact {
		core = o.C * o.coreDegreeExact(1)
	}
	return core + o.L*o.P + o.U*mu*(1+math.Exp(-mu))
}

// coreDegreeExact returns Σ_j j^{−α}/ζ(α) · P[Bin(j, p) = d]: the exact
// probability that a core node is observed with degree d.
func (o Observation) coreDegreeExact(d int) float64 {
	if o.P == 0 {
		if d == 0 {
			return 1
		}
		return 0
	}
	z := o.zetaAlpha()
	logP, log1P := math.Log(o.P), math.Log1p(-o.P)
	var s float64
	// Binomial pmf at d concentrates near j ≈ d/p; sum a wide window.
	jMax := int(float64(d)/o.P*8) + 256
	for j := d; j <= jMax; j++ {
		lgj := specialfn.LogFactorial(j) - specialfn.LogFactorial(d) - specialfn.LogFactorial(j-d)
		logPMF := lgj + float64(d)*logP + float64(j-d)*log1P
		s += math.Pow(float64(j), -o.Alpha) * math.Exp(logPMF)
	}
	return s / z
}

// DegreeFraction returns the Section IV prediction for
// (# degree-d nodes)/(total # nodes) in the observed network, for d >= 1.
//
//	d = 1:  [C p^α/ζ(α) + L p + U λp (1 + e^{−λp})] / V
//	d >= 2: [C p^α d^{−α}/ζ(α) + U e^{−λp} (λp)^d / d!] / V
//
// With exact=true, the core term uses the exact Bin(zeta, p) thinning sum
// and V the exact visibility normalizer.
func (o Observation) DegreeFraction(d int, exact bool) (float64, error) {
	if d < 1 {
		return 0, errors.New("palu: degree must be >= 1")
	}
	v := o.VisibleFraction()
	if exact {
		v = o.VisibleFractionExact()
	}
	if v == 0 {
		return 0, errors.New("palu: zero visible fraction (p=0 with no stars)")
	}
	if d == 1 {
		return o.degreeOneRaw(exact) / v, nil
	}
	mu := o.Mu()
	var core float64
	if exact {
		core = o.C * o.coreDegreeExact(d)
	} else {
		core = o.C * math.Pow(o.P, o.Alpha) * math.Pow(float64(d), -o.Alpha) / o.zetaAlpha()
	}
	star := o.U * specialfn.PoissonPMF(d, mu)
	return (core + star) / v, nil
}

// Constants are the reduced degree-law constants of Section IV.B, Eqs.
// (2)–(4): the observed degree distribution is
//
//	ratio(1)    ≈ c + l + u·μ·(1 + e^{μ})
//	ratio(d≥2)  ≈ c·d^{−α} + u·μ^d/d!
//	ratio(d≥10) ≈ c·d^{−α}
//
// with c = Cp^α/(ζ(α)V), l = Lp/V, u = U e^{−λp}/V, μ = λp, Λ = e·μ.
type Constants struct {
	C, L, U float64 // the paper's lower-case c, l, u
	// Mu is the Poisson mean μ = λp (erratum E2: the paper's moment
	// identities hold in μ; Λ = e·μ is the Stirling-form constant).
	Mu float64
	// Lambda is the paper's Λ = e·λp used by the (Λ/d)^d form of Eq. (3).
	Lambda float64
	// Alpha is carried through unchanged.
	Alpha float64
}

// ReducedConstants maps an observation to the Section IV.B constants.
//
// When exact is false the paper's formulas are used verbatim, including
// c = Cp^α/(ζ(α)V). When exact is true, V is the exact visibility
// normalizer and c uses the asymptotically correct thinned-tail amplitude
// c = Cp^{α−1}/(ζ(α)V) (erratum E6, DESIGN.md): summing
// Σ_j j^{−α} P[Bin(j,p)=d] with Σ_j P[Bin(j,p)=d] = 1/p exactly gives
// count(d) → C p^{α−1} d^{−α}/ζ(α) for large d, which is the amplitude a
// tail regression on observed data actually measures.
func (o Observation) ReducedConstants(exact bool) (Constants, error) {
	v := o.VisibleFraction()
	pExponent := o.Alpha // paper form: p^α
	if exact {
		v = o.VisibleFractionExact()
		pExponent = o.Alpha - 1 // exact thinned-tail amplitude: p^{α−1}
	}
	if v <= 0 {
		return Constants{}, errors.New("palu: zero visible fraction")
	}
	mu := o.Mu()
	return Constants{
		C:      o.Params.C * math.Pow(o.P, pExponent) / (o.zetaAlpha() * v),
		L:      o.Params.L * o.P / v,
		U:      o.Params.U * math.Exp(-mu) / v,
		Mu:     mu,
		Lambda: math.E * mu,
		Alpha:  o.Alpha,
	}, nil
}

// DegreeRatio evaluates the reduced degree law at degree d (Eqs. (2)-(4)).
func (k Constants) DegreeRatio(d int) (float64, error) {
	switch {
	case d < 1:
		return 0, errors.New("palu: degree must be >= 1")
	case d == 1:
		return k.C + k.L + k.U*k.Mu*(1+math.Exp(k.Mu)), nil
	default:
		star := k.U * math.Exp(float64(d)*math.Log(k.Mu)-specialfn.LogFactorial(d))
		if k.Mu == 0 {
			star = 0
		}
		return k.C*math.Pow(float64(d), -k.Alpha) + star, nil
	}
}
