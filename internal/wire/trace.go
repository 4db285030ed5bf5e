// Distributed-trace carriage for Batch frames. A traced batch sets
// FlagTraced in the frame header and prefixes its payload with a fixed
// 16-byte span context (trace id, span id — both little-endian uint64)
// ahead of the columnar records. Absence means untraced: a client only
// emits the prefix after the server granted tracing in HelloAck.Trace,
// and an untraced frame carries no prefix at all. Keeping the span
// context out of the header proper means the 32-byte header layout — and
// every untraced byte stream — is the same with tracing on or off.
package wire

import (
	"encoding/binary"
	"fmt"

	"repro/internal/event"
)

// FlagTraced marks a Batch frame whose payload opens with a TracePrefixSize
// span context. Only meaningful on TypeBatch frames of sessions granted
// Hello.Trace in HelloAck.Trace.
const FlagTraced = 0x1

// TracePrefixSize is the traced-batch payload prefix: trace id (8 bytes LE)
// then span id (8 bytes LE).
const TracePrefixSize = 16

// AppendBatchFrameTraced encodes b as a columnar Batch frame. A non-zero
// trace id prefixes the payload with the span context and sets
// FlagTraced; a zero trace id means "this batch is unsampled" and emits
// the untraced frame, so per-batch sampling costs nothing on the wire for
// unsampled batches.
func AppendBatchFrameTraced(dst []byte, h Header, b *event.Batch, trace, span uint64) []byte {
	h.Type = TypeBatch
	off := len(dst)
	dst = append(dst, make([]byte, HeaderSize)...)
	if trace != 0 {
		h.Flags |= FlagTraced
		dst = binary.LittleEndian.AppendUint64(dst, trace)
		dst = binary.LittleEndian.AppendUint64(dst, span)
	}
	dst = AppendColumnar(dst, b.Recs)
	payload := dst[off+HeaderSize:]
	putHeader(dst[off:], h, uint32(len(payload)), checksum(payload))
	return dst
}

// SplitTracePrefix separates a Batch payload into its span context and the
// columnar records. Untraced frames (flag clear) pass through with a
// zero context.
func SplitTracePrefix(h Header, payload []byte) (trace, span uint64, recs []byte, err error) {
	if h.Flags&FlagTraced == 0 {
		return 0, 0, payload, nil
	}
	if len(payload) < TracePrefixSize {
		return 0, 0, nil, fmt.Errorf("wire: traced batch payload %d bytes, need %d-byte span context", len(payload), TracePrefixSize)
	}
	trace = binary.LittleEndian.Uint64(payload)
	span = binary.LittleEndian.Uint64(payload[8:])
	return trace, span, payload[TracePrefixSize:], nil
}
