package wire

import (
	"bytes"
	"fmt"
	"io"
	"sync"

	"repro/internal/chainhash"
)

// This file holds message framing. An Encoder owns the frame bytes and a
// Decoder owns the payload bytes; Message.AppendPayload and Message.Decode
// only ever see those two concrete buffers. The package level
// WriteMessage/ReadMessage borrow pooled instances; long-lived callers (one
// per connection or per benchmark loop) hold an Encoder/Decoder directly
// and skip the pool round-trip.
//
// Ownership rules (see DESIGN "Hot-path memory discipline"):
//
//   - An Encoder's scratch is private; the frame it assembles is written
//     to w in a single Write call and never escapes.
//   - A Decoder's returned Message and any slices reachable from it are
//     valid only until the next ReadMessage call on that Decoder. Callers
//     that retain a message (or its slices) across reads must copy first.
//     The package-level ReadMessage has no such caveat: it always
//     allocates a fresh message.
//   - Message.Decode implementations never alias the payload scratch:
//     every byte they keep is copied out (fixed-size arrays, fresh byte
//     slices, strings), which is what makes payload reuse sound.

// maxRetainedScratch bounds the scratch capacity a pooled Encoder or
// Decoder keeps between uses. A rare 4 MB block frame must not pin its
// buffer in the pool forever.
const maxRetainedScratch = 1 << 20

// Encoder frames messages into reusable scratch and writes each frame with
// a single Write call. The encode is single-pass: the payload is appended
// directly after a reserved 24-byte header slot, the checksum is computed
// over the payload in place, and the header is back-filled.
//
// An Encoder is not safe for concurrent use.
type Encoder struct {
	frame []byte
}

// WriteMessage frames msg for network net and writes it to w. It returns
// the number of bytes actually written — on a short write this is the true
// count from w, not an assumed header size (the frame goes out in one
// Write call).
func (e *Encoder) WriteMessage(w io.Writer, msg Message, net BitcoinNet) (int, error) {
	cmd := msg.Command()
	if len(cmd) > CommandSize {
		return 0, fmt.Errorf("wire: command %q exceeds %d bytes", cmd, CommandSize)
	}
	// Reserve a zeroed header slot (the command field is NUL-padded); the
	// payload is appended after it.
	frame, err := msg.AppendPayload(append(e.frame[:0], make([]byte, headerSize)...))
	if err != nil {
		return 0, fmt.Errorf("wire: encode %s: %w", cmd, err)
	}
	e.frame = frame
	payload := frame[headerSize:]
	if len(payload) > MaxMessagePayload {
		return 0, fmt.Errorf("%w: %s payload is %d bytes", ErrPayloadTooLarge,
			cmd, len(payload))
	}
	hdr := frame[:headerSize]
	putUint32(hdr[0:4], uint32(net))
	copy(hdr[4:4+CommandSize], cmd)
	putUint32(hdr[16:20], uint32(len(payload)))
	sum := chainhash.Checksum(payload)
	copy(hdr[20:24], sum[:])
	n, err := w.Write(frame)
	if err != nil {
		return n, fmt.Errorf("wire: write frame: %w", err)
	}
	return n, nil
}

var encoderPool = sync.Pool{New: func() any { return new(Encoder) }}

// GetEncoder returns a pooled Encoder. Pair with Release when done.
func GetEncoder() *Encoder { return encoderPool.Get().(*Encoder) }

// Release returns the Encoder to the pool. The Encoder must not be used
// after Release.
func (e *Encoder) Release() {
	if cap(e.frame) > maxRetainedScratch {
		e.frame = nil
	}
	encoderPool.Put(e)
}

// Decoder reads framed messages using reusable payload scratch and, for
// known commands, a reused message value per command. The Message returned
// by ReadMessage (and anything reachable from it) is borrowed: valid only
// until the next ReadMessage call on the same Decoder.
//
// A Decoder is not safe for concurrent use.
type Decoder struct {
	payload []byte
	hdr     [headerSize]byte
	rd      bytes.Reader
	msgs    map[string]Message
}

// ReadMessage reads one framed message for network net from r, reusing the
// Decoder's cached message value for the command. See the type comment for
// the ownership rule on the returned Message.
func (d *Decoder) ReadMessage(r io.Reader, net BitcoinNet) (Message, error) {
	return d.readMessage(r, net, true)
}

func (d *Decoder) readMessage(r io.Reader, net BitcoinNet, reuse bool) (Message, error) {
	hdr, err := readMessageHeader(r, &d.hdr)
	if err != nil {
		return nil, err
	}
	if hdr.magic != net {
		return nil, fmt.Errorf("%w: got %#x, want %#x", ErrBadMagic,
			uint32(hdr.magic), uint32(net))
	}
	if hdr.length > MaxMessagePayload {
		return nil, fmt.Errorf("%w: header declares %d bytes",
			ErrPayloadTooLarge, hdr.length)
	}
	if cap(d.payload) < int(hdr.length) {
		d.payload = make([]byte, hdr.length)
	} else {
		d.payload = d.payload[:hdr.length]
	}
	if _, err := io.ReadFull(r, d.payload); err != nil {
		return nil, fmt.Errorf("wire: read %s payload: %w", hdr.command, err)
	}
	if sum := chainhash.Checksum(d.payload); sum != hdr.checksum {
		return nil, fmt.Errorf("%w: %s payload", ErrBadChecksum, hdr.command)
	}
	var msg Message
	if reuse {
		// hdr.command is interned for known commands, so this lookup does
		// not allocate; unknown commands fail makeEmptyMessage below.
		msg = d.msgs[hdr.command]
	}
	if msg == nil {
		msg, err = makeEmptyMessage(hdr.command)
		if err != nil {
			return nil, err
		}
		if reuse {
			if d.msgs == nil {
				d.msgs = make(map[string]Message)
			}
			d.msgs[hdr.command] = msg
		}
	}
	d.rd.Reset(d.payload)
	if err := msg.Decode(&d.rd); err != nil {
		return nil, fmt.Errorf("wire: decode %s: %w", hdr.command, err)
	}
	return msg, nil
}

var decoderPool = sync.Pool{New: func() any { return new(Decoder) }}

// GetDecoder returns a pooled Decoder. Pair with Release when done.
func GetDecoder() *Decoder { return decoderPool.Get().(*Decoder) }

// Release returns the Decoder to the pool. The Decoder must not be used —
// and no message obtained from its ReadMessage may be read — after
// Release, except for messages from the fresh-allocation path (the
// package-level ReadMessage), which are caller-owned.
func (d *Decoder) Release() {
	// The cached messages are as large as the frame they were decoded
	// from, so they go whenever the scratch does.
	if cap(d.payload) > maxRetainedScratch {
		d.payload = nil
		d.msgs = nil
	}
	decoderPool.Put(d)
}
