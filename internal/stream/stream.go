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
