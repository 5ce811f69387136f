package wire

import (
	"errors"
	"fmt"
	"io"
	"os"
	"testing"
)

func TestViolationPoints(t *testing.T) {
	cases := []struct {
		err  error
		want float64
	}{
		{nil, 0},
		{ErrBadMagic, PointsFraming},
		{ErrChecksum, PointsFraming},
		{ErrMalformed, PointsMalformed},
		{ErrTooLarge, PointsMalformed},
		{ErrUnknownType, PointsMalformed},
		// Wrapped errors, as Read actually returns them.
		{fmt.Errorf("%w: payload 9 bytes", ErrTooLarge), PointsMalformed},
		{fmt.Errorf("%w: got 0xdeadbeef", ErrBadMagic), PointsFraming},
		// Transport failures are not offenses.
		{io.EOF, 0},
		{io.ErrUnexpectedEOF, 0},
		{os.ErrDeadlineExceeded, 0},
		{errors.New("connection reset by peer"), 0},
	}
	for _, c := range cases {
		if got := ViolationPoints(c.err); got != c.want {
			t.Errorf("ViolationPoints(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}
