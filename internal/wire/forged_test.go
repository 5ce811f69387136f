package wire

import (
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
)

// TestForgedHashCountReservesNothing: an INV or GETDATA payload that claims
// MaxInvHashes hashes and carries none fails as truncated without first
// reserving room for them (32 KB a message before the fix).
func TestForgedHashCountReservesNothing(t *testing.T) {
	forged := binary.LittleEndian.AppendUint32(nil, MaxInvHashes)
	for _, typ := range []MsgType{MsgInv, MsgGetData} {
		if _, err := decodePayload(typ, forged); !errors.Is(err, ErrMalformed) {
			t.Fatalf("%v with a forged count: error %v, want %v", typ, err, ErrMalformed)
		}
		const calls = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			_, _ = decodePayload(typ, forged)
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 1024 {
			t.Fatalf("%v with a forged count allocates %d bytes per call, want under 1 KB", typ, per)
		}
	}
}
