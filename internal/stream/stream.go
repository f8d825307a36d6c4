// Package stream implements the streaming measurement pipeline of
// Section II: packet traces are filtered to valid packets, cut into
// consecutive windows of exactly NV valid packets, aggregated into sparse
// traffic matrices At, and reduced to the five network quantities of
// Fig. 1 (source packets, source fan-out, link packets, destination
// fan-in, destination packets).
//
// "An essential step for increasing the accuracy of the statistical
// measures of Internet traffic is using windows with the same number of
// valid packets NV."
package stream

import (
	"errors"
	"fmt"
	"strings"

	"hybridplaw/internal/hist"
	"hybridplaw/internal/spmat"
)

// Packet is a single observed packet. Src/Dst are anonymized endpoint
// identifiers (the paper's traces are anonymized at the observatory).
type Packet struct {
	Src, Dst uint32
	// Valid marks packets that pass the observatory's validity filter
	// (well-formed header, non-measurement traffic). Only valid packets
	// count toward NV and enter At.
	Valid bool
}

// Quantity enumerates the five streaming network quantities of Fig. 1.
type Quantity int

const (
	// SourcePackets is the number of packets sent by each unique source.
	SourcePackets Quantity = iota
	// SourceFanOut is the number of unique destinations of each source.
	SourceFanOut
	// LinkPackets is the number of packets on each unique src-dst link.
	LinkPackets
	// DestinationFanIn is the number of unique sources of each destination.
	DestinationFanIn
	// DestinationPackets is the number of packets received by each unique
	// destination.
	DestinationPackets
)

// NumQuantities is the number of Fig. 1 network quantities.
const NumQuantities = 5

// Quantities lists all five quantities in the paper's Fig. 1 order.
var Quantities = []Quantity{
	SourcePackets, SourceFanOut, LinkPackets, DestinationFanIn, DestinationPackets,
}

// String returns the paper's name for the quantity.
func (q Quantity) String() string {
	switch q {
	case SourcePackets:
		return "source packets"
	case SourceFanOut:
		return "source fan-out"
	case LinkPackets:
		return "link packets"
	case DestinationFanIn:
		return "destination fan-in"
	case DestinationPackets:
		return "destination packets"
	default:
		return fmt.Sprintf("Quantity(%d)", int(q))
	}
}

// QuantityFlagNames are the command-line names of the five quantities,
// indexed by Quantity (the paper's Fig. 1 order).
var QuantityFlagNames = [NumQuantities]string{
	"source-packets", "fan-out", "link-packets", "fan-in", "dest-packets",
}

// ParseQuantity returns the quantity whose command-line name is name.
// Its error lists the names in Fig. 1 order.
func ParseQuantity(name string) (Quantity, error) {
	for q, n := range QuantityFlagNames {
		if n == name {
			return Quantity(q), nil
		}
	}
	return 0, fmt.Errorf("unknown quantity %q (want one of %s)",
		name, strings.Join(QuantityFlagNames[:], "|"))
}

// ErrShortStream indicates the stream ended before a full window of NV
// valid packets was observed.
var ErrShortStream = errors.New("stream: not enough valid packets for a window")

// Window is one aggregated window At of exactly NV valid packets.
type Window struct {
	// T is the window index (the paper's time t).
	T int
	// Matrix is the sparse traffic matrix At.
	Matrix *spmat.Matrix
	// NV is the number of valid packets aggregated.
	NV int64
}

// Windower cuts a packet stream into consecutive fixed-NV windows.
type Windower struct {
	nv      int64
	builder *spmat.Builder
	seen    int64
	t       int
}

// NewWindower returns a windower with the given window size NV (the paper
// uses NV from 1e5 to 1e8; any positive value is accepted).
func NewWindower(nv int64) (*Windower, error) {
	if nv <= 0 {
		return nil, errors.New("stream: window size NV must be positive")
	}
	return &Windower{nv: nv, builder: spmat.NewBuilder()}, nil
}

// Push feeds one packet. It returns a completed window when the packet
// closes it, or nil otherwise. Invalid packets are counted nowhere: they
// neither advance NV nor enter At.
func (w *Windower) Push(p Packet) *Window {
	if !p.Valid {
		return nil
	}
	w.builder.AddPacket(p.Src, p.Dst)
	w.seen++
	if w.seen < w.nv {
		return nil
	}
	win := &Window{T: w.t, Matrix: w.builder.Build(), NV: w.seen}
	w.t++
	w.seen = 0
	w.builder.Reset() // Build copied the entries out; reuse the maps
	return win
}

// Pending returns the number of valid packets accumulated toward the next
// (incomplete) window.
func (w *Windower) Pending() int64 { return w.seen }

// Flush closes the current partial window and returns it (with NV equal
// to the packets actually pending), or nil if nothing is pending. Use it
// when a trace ends and the tail must be observed rather than discarded;
// the fixed-NV methodology of the paper discards tails instead.
func (w *Windower) Flush() *Window {
	if w.seen == 0 {
		return nil
	}
	win := &Window{T: w.t, Matrix: w.builder.Build(), NV: w.seen}
	w.t++
	w.seen = 0
	w.builder.Reset()
	return win
}

// Reset discards any pending partial window and rewinds the window index
// to zero, so a reused windower cannot silently carry Pending() packets
// from one trace into the next.
func (w *Windower) Reset() {
	w.builder.Reset()
	w.seen = 0
	w.t = 0
}

// Cut consumes a packet slice and returns all complete windows. A trailing
// partial window is discarded, matching the paper's fixed-NV methodology.
// It returns ErrShortStream if no window completes.
//
// Cut is a thin wrapper over the streaming pipeline (see pipeline.go):
// the slice is replayed through Run with matrices retained.
func Cut(packets []Packet, nv int64) ([]*Window, error) {
	wins, _, err := CollectWindows(NewSliceSource(packets), PipelineConfig{NV: nv})
	if err != nil {
		return nil, err
	}
	if len(wins) == 0 {
		return nil, ErrShortStream
	}
	return wins, nil
}

// QuantityHistogram reduces a window to the degree histogram of one of the
// five Fig. 1 quantities.
func QuantityHistogram(win *Window, q Quantity) (*hist.Histogram, error) {
	if win == nil || win.Matrix == nil {
		return nil, errors.New("stream: nil window")
	}
	switch q {
	case SourcePackets:
		return histFromMap(win.Matrix.SourcePackets())
	case SourceFanOut:
		return histFromMap(win.Matrix.SourceFanOut())
	case LinkPackets:
		return hist.FromValues(win.Matrix.LinkPackets())
	case DestinationFanIn:
		return histFromMap(win.Matrix.DestinationFanIn())
	case DestinationPackets:
		return histFromMap(win.Matrix.DestinationPackets())
	default:
		return nil, fmt.Errorf("stream: unknown quantity %d", int(q))
	}
}

func histFromMap(m map[uint32]int64) (*hist.Histogram, error) {
	h := hist.New()
	for _, v := range m {
		if err := h.AddN(int(v), 1); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// AllQuantities computes the histograms for all five quantities of a
// window in one call, keyed by Quantity. It reduces from the frozen
// matrix; the streaming pipeline computes the same histograms without a
// matrix (see reduceWindow), and AllQuantities deliberately stays an
// independent reference implementation for the equivalence tests.
func AllQuantities(win *Window) (map[Quantity]*hist.Histogram, error) {
	out := make(map[Quantity]*hist.Histogram, NumQuantities)
	for _, q := range Quantities {
		h, err := QuantityHistogram(win, q)
		if err != nil {
			return nil, err
		}
		out[q] = h
	}
	return out, nil
}
