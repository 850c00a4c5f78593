// Package perf evaluates analog amplifier performance analytically:
// dc gain, gain-bandwidth product, phase margin, slew rate and power
// for a fully-differential folded-cascode OTA (the circuit of the
// paper's Fig. 10 experiment) and a two-stage Miller OTA.
//
// It substitutes for the SPICE-level simulator of the original
// layout-aware flow, which cmd/fig10 runs: what Section V needs from
// the simulator is that layout parasitics — junction capacitances set
// by folding, wire capacitances set by the floorplan — feed back into
// the performance numbers. Here they enter exactly where physics puts
// them: output-node capacitance degrades GBW and slew rate, folding-
// node capacitance moves the non-dominant pole and erodes phase
// margin.
package perf

import (
	"fmt"
	"math"

	"repro/internal/mos"
)

// Parasitics are the layout-induced capacitances at the critical nodes
// of an amplifier, produced by package extract. Zero values mean a
// pre-layout evaluation.
type Parasitics struct {
	COut  float64 // extra capacitance at the output node(s), F
	CFold float64 // extra capacitance at the folding / internal node, F

	// IgnoreJunctions models the classic schematic-level sizing
	// shortcut of entering zero source/drain areas: device junction
	// capacitances are excluded from every node. It is the
	// "underestimation" failure mode of Section V — sizings look fine
	// at schematic level and degrade fatally once the layout's
	// junction and wire parasitics appear.
	IgnoreJunctions bool
}

// drainCap returns the device's drain junction capacitance unless the
// evaluation ignores junctions.
func (p Parasitics) drainCap(d interface{ DrainCap() float64 }) float64 {
	if p.IgnoreJunctions {
		return 0
	}
	return d.DrainCap()
}

// sourceCap is the source-junction analogue of drainCap.
func (p Parasitics) sourceCap(d interface{ SourceCap() float64 }) float64 {
	if p.IgnoreJunctions {
		return 0
	}
	return d.SourceCap()
}

// Perf is one evaluation result.
type Perf struct {
	GainDB float64 // dc gain, dB
	GBW    float64 // unity-gain bandwidth, Hz
	PM     float64 // phase margin, degrees
	SR     float64 // slew rate, V/s
	Power  float64 // static power, W
	OpOK   bool    // all devices saturate within the supply
	OpMsg  string  // first operating-point violation, if any
}

// Spec is a set of performance requirements (Fig. 9's "performance
// specifications", e.g. "dc-gain higher than 50 dB").
type Spec struct {
	MinGainDB float64
	MinGBW    float64 // Hz
	MinPM     float64 // degrees
	MinSR     float64 // V/s
	MaxPower  float64 // W; 0 = unconstrained
}

// Violations returns human-readable spec violations (empty = pass).
func (s Spec) Violations(p Perf) []string {
	var out []string
	if !p.OpOK {
		out = append(out, "operating point: "+p.OpMsg)
	}
	if p.GainDB < s.MinGainDB {
		out = append(out, fmt.Sprintf("gain %.1f dB < %.1f dB", p.GainDB, s.MinGainDB))
	}
	if p.GBW < s.MinGBW {
		out = append(out, fmt.Sprintf("GBW %.3g Hz < %.3g Hz", p.GBW, s.MinGBW))
	}
	if p.PM < s.MinPM {
		out = append(out, fmt.Sprintf("PM %.1f° < %.1f°", p.PM, s.MinPM))
	}
	if p.SR < s.MinSR {
		out = append(out, fmt.Sprintf("SR %.3g V/s < %.3g V/s", p.SR, s.MinSR))
	}
	if s.MaxPower > 0 && p.Power > s.MaxPower {
		out = append(out, fmt.Sprintf("power %.3g W > %.3g W", p.Power, s.MaxPower))
	}
	return out
}

// FoldedCascode is the design vector of the fully-differential
// folded-cascode OTA: per-group transistor sizes with fold counts,
// tail current, supply and load.
type FoldedCascode struct {
	In   mos.Device // input pair M1/M2 (NMOS)
	Tail mos.Device // tail source M0 (NMOS)
	Src  mos.Device // PMOS current sources M3/M4
	CasP mos.Device // PMOS cascodes M5/M6
	CasN mos.Device // NMOS cascodes M7/M8
	Mir  mos.Device // NMOS mirror M9/M10

	ITail float64 // A
	VDD   float64 // V
	CL    float64 // load capacitance per output, F
}

// Devices returns the named device list (one per matched group).
func (d FoldedCascode) Devices() map[string]mos.Device {
	return map[string]mos.Device{
		"in": d.In, "tail": d.Tail, "src": d.Src,
		"casp": d.CasP, "casn": d.CasN, "mir": d.Mir,
	}
}

// Validate checks the design vector.
func (d FoldedCascode) Validate() error {
	for name, dev := range d.Devices() {
		if err := dev.Validate(); err != nil {
			return fmt.Errorf("perf: %s: %v", name, err)
		}
	}
	if d.ITail <= 0 || d.VDD <= 0 || d.CL <= 0 {
		return fmt.Errorf("perf: non-positive bias, supply or load")
	}
	return nil
}

// Evaluate computes the folded-cascode performance with the given
// layout parasitics.
func (d FoldedCascode) Evaluate(par Parasitics) (Perf, error) {
	if err := d.Validate(); err != nil {
		return Perf{}, err
	}
	iHalf := d.ITail / 2 // per input device
	iOut := d.ITail / 2  // output branch current
	iSrc := iHalf + iOut // PMOS source current

	gm1 := d.In.Gm(iHalf)

	// Output resistance: cascoded PMOS (src under casp) in parallel
	// with cascoded NMOS (mir under casn).
	rUp := d.CasP.Gm(iOut) * d.CasP.Rout(iOut) * d.Src.Rout(iSrc)
	rDn := d.CasN.Gm(iOut) * d.CasN.Rout(iOut) * d.Mir.Rout(iOut)
	rOut := rUp * rDn / (rUp + rDn)
	gain := gm1 * rOut

	// Output node capacitance: load + cascode drains + wiring.
	cOut := d.CL + par.drainCap(d.CasP) + par.drainCap(d.CasN) + par.COut
	gbw := gm1 / (2 * math.Pi * cOut)

	// Folding node: input drain, source drain, cascode source.
	cFold := par.drainCap(d.In) + par.drainCap(d.Src) + par.sourceCap(d.CasP) +
		d.CasP.GateCap()/2 + par.CFold
	p2 := d.CasP.Gm(iOut) / (2 * math.Pi * cFold)
	pm := 90 - math.Atan(gbw/p2)*180/math.Pi

	sr := d.ITail / cOut
	power := d.VDD * (d.ITail + 2*iSrc)

	p := Perf{GainDB: 20 * math.Log10(gain), GBW: gbw, PM: pm, SR: sr, Power: power, OpOK: true}

	// Operating-point: overdrives must fit the supply on both stacks.
	vovIn := d.In.VOV(iHalf)
	vovTail := d.Tail.VOV(d.ITail)
	vovSrc := d.Src.VOV(iSrc)
	vovCasP := d.CasP.VOV(iOut)
	vovCasN := d.CasN.VOV(iOut)
	vovMir := d.Mir.VOV(iOut)
	nStack := vovTail + vovIn + d.In.Tech.VT + 0.2
	pStack := vovSrc + vovCasP + vovCasN + vovMir + 0.3
	switch {
	case nStack > d.VDD:
		p.OpOK = false
		p.OpMsg = fmt.Sprintf("input stack needs %.2f V > VDD %.2f V", nStack, d.VDD)
	case pStack > d.VDD:
		p.OpOK = false
		p.OpMsg = fmt.Sprintf("cascode stack needs %.2f V > VDD %.2f V", pStack, d.VDD)
	}
	return p, nil
}

// DeviceArea returns the total active device area in µm², counting
// matched groups twice (pairs) and the tail once.
func (d FoldedCascode) DeviceArea() float64 {
	return 2*(d.In.Area()+d.Src.Area()+d.CasP.Area()+d.CasN.Area()+d.Mir.Area()) + d.Tail.Area()
}

// Miller is the two-stage Miller-compensated OTA design vector
// (Fig. 6's circuit).
type Miller struct {
	In   mos.Device // input pair P1/P2 (PMOS)
	Load mos.Device // NMOS load mirror N3/N4
	Tail mos.Device // PMOS tail P6
	Out  mos.Device // NMOS output device N8
	OutP mos.Device // PMOS output current source P7

	ITail float64 // first-stage tail current, A
	IOut  float64 // output-stage current, A
	VDD   float64
	CC    float64 // compensation capacitance, F
	CL    float64 // load capacitance, F
}

// Evaluate computes the Miller OTA performance with parasitics (COut
// at the output, CFold at the first-stage output node).
func (d Miller) Evaluate(par Parasitics) (Perf, error) {
	for name, dev := range map[string]mos.Device{
		"in": d.In, "load": d.Load, "tail": d.Tail, "out": d.Out, "outp": d.OutP,
	} {
		if err := dev.Validate(); err != nil {
			return Perf{}, fmt.Errorf("perf: %s: %v", name, err)
		}
	}
	if d.ITail <= 0 || d.IOut <= 0 || d.CC <= 0 || d.CL <= 0 || d.VDD <= 0 {
		return Perf{}, fmt.Errorf("perf: non-positive bias or capacitance")
	}
	iHalf := d.ITail / 2
	gm1 := d.In.Gm(iHalf)
	r1 := parallel(d.In.Rout(iHalf), d.Load.Rout(iHalf))
	gm2 := d.Out.Gm(d.IOut)
	r2 := parallel(d.Out.Rout(d.IOut), d.OutP.Rout(d.IOut))
	gain := gm1 * r1 * gm2 * r2

	cOut := d.CL + par.drainCap(d.Out) + par.drainCap(d.OutP) + par.COut
	c1 := par.drainCap(d.In) + par.drainCap(d.Load) + d.Out.GateCap() + par.CFold
	gbw := gm1 / (2 * math.Pi * d.CC)
	// Pole splitting: output pole gm2/cOut, plus the internal pole the
	// first-stage parasitic c1 reintroduces, and the RHP zero gm2/CC.
	p2 := gm2 / (2 * math.Pi * cOut)
	pInt := gm2 * d.CC / (2 * math.Pi * c1 * cOut)
	z := gm2 / (2 * math.Pi * d.CC)
	pm := 90 - (math.Atan(gbw/p2)+math.Atan(gbw/pInt)+math.Atan(gbw/z))*180/math.Pi

	sr := math.Min(d.ITail/d.CC, d.IOut/cOut)
	power := d.VDD * (d.ITail + d.IOut)
	p := Perf{GainDB: 20 * math.Log10(gain), GBW: gbw, PM: pm, SR: sr, Power: power, OpOK: true}
	return p, nil
}

func parallel(a, b float64) float64 {
	if math.IsInf(a, 1) {
		return b
	}
	if math.IsInf(b, 1) {
		return a
	}
	return a * b / (a + b)
}
