package wire

import "errors"

// Misbehavior points charged per protocol violation. The live node feeds
// these into the address book's misbehavior score; a peer crossing the
// book's ban threshold is disconnected and banned. Severe violations
// (corrupt framing that an honest implementation can never emit) are
// weighted so a handful of offenses trips the default threshold, while
// lighter ones (oversized or undecodable payloads, which a buggy-but-
// honest peer could produce) take sustained abuse.
const (
	// PointsFraming is charged for bad magic or checksum mismatches.
	PointsFraming = 40
	// PointsMalformed is charged for undecodable, oversized, or
	// unknown-type payloads.
	PointsMalformed = 25
)

// ViolationPoints classifies a read error into misbehavior points.
// It returns 0 for transport errors (EOF, timeouts, resets): losing a
// connection is not a protocol offense, and charging for it would let
// an attacker get victims banned by injecting resets.
func ViolationPoints(err error) float64 {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, ErrBadMagic), errors.Is(err, ErrChecksum):
		return PointsFraming
	case errors.Is(err, ErrMalformed), errors.Is(err, ErrTooLarge), errors.Is(err, ErrUnknownType):
		return PointsMalformed
	default:
		return 0
	}
}
