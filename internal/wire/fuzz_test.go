package wire

import (
	"bytes"
	"math/rand"
	"testing"
	"time"
)

// These tests feed hostile and corrupted inputs to the decoder: a public
// crawler endpoint must survive anything the network throws at it. The
// property under test is "no panic, bounded allocation, error returned" —
// not any particular error.

// TestReadMessageRandomGarbage hammers ReadMessage with random bytes.
func TestReadMessageRandomGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 2000; i++ {
		n := rng.Intn(200)
		buf := make([]byte, n)
		rng.Read(buf)
		// Must not panic; almost always errors (a random checksum match
		// is a ~2^-32 event).
		_, _ = ReadMessage(bytes.NewReader(buf), SimNet)
	}
}

// TestReadMessageBitFlippedFrames corrupts valid frames at every byte
// position and asserts the decoder never panics and never returns a
// message from a corrupted-payload frame without noticing.
func TestReadMessageBitFlippedFrames(t *testing.T) {
	msg := &MsgPing{Nonce: 0x1122334455667788}
	var buf bytes.Buffer
	if _, err := new(Encoder).WriteMessage(&buf, msg, SimNet); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	for pos := 0; pos < len(valid); pos++ {
		corrupted := make([]byte, len(valid))
		copy(corrupted, valid)
		corrupted[pos] ^= 0x01
		got, err := ReadMessage(bytes.NewReader(corrupted), SimNet)
		if err != nil {
			continue // detection is the expected outcome
		}
		// A flip that still decodes must be a header-only field change
		// that keeps magic, length, and checksum consistent — impossible
		// for a single bit flip except inside the command padding, which
		// would change the command; so any successful decode must still
		// be a ping with intact payload.
		ping, ok := got.(*MsgPing)
		if !ok || ping.Nonce != msg.Nonce {
			t.Fatalf("flip at %d produced silent corruption: %#v", pos, got)
		}
	}
}

// TestDecodeTruncations decodes every prefix of valid payloads; all must
// fail cleanly.
func TestDecodeTruncations(t *testing.T) {
	messages := []Message{
		&MsgVersion{UserAgent: "/trunc/", Timestamp: time.Unix(1586000000, 0)},
		&MsgAddr{AddrList: make([]NetAddress, 5)},
		&MsgTx{Version: 1, TxIn: []TxIn{{SignatureScript: []byte{1, 2, 3}}}},
		&MsgHeaders{Headers: make([]BlockHeader, 3)},
		&MsgCmpctBlock{ShortIDs: make([]ShortID, 4)},
		&MsgGetBlockTxn{Indexes: []uint16{1, 5, 9}},
	}
	for _, msg := range messages {
		full := mustPayload(t, msg)
		for cut := 0; cut < len(full); cut++ {
			fresh, err := makeEmptyMessage(msg.Command())
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.Decode(bytes.NewReader(full[:cut])); err == nil {
				// Some prefixes are legitimately valid messages (e.g. a
				// shorter address list is not, because the count prefix
				// pins the length — but VERSION without the relay byte
				// is). Only VERSION has such an optional tail.
				if msg.Command() != CmdVersion {
					t.Errorf("%s: truncation at %d/%d decoded successfully",
						msg.Command(), cut, len(full))
				}
			}
		}
	}
}

// TestHostileCountFields builds frames whose count prefixes promise
// enormous contents and asserts decoding fails fast (bounded allocation)
// rather than attempting multi-gigabyte allocations.
func TestHostileCountFields(t *testing.T) {
	cases := []struct {
		name    string
		command string
		payload []byte
	}{
		{"addr-1e9", CmdAddr, appendVarInt(nil, 1_000_000_000)},
		{"inv-huge", CmdInv, appendVarInt(nil, 1<<40)},
		{"tx-huge-inputs", CmdTx, appendVarInt(appendUint32(nil, 1), 1<<30)},
		{"headers-huge", CmdHeaders, appendVarInt(nil, 1<<20)},
		{"blocktxn-huge", CmdBlockTxn, appendVarInt(make([]byte, 32), 1<<33)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			msg, err := makeEmptyMessage(tc.command)
			if err != nil {
				t.Fatal(err)
			}
			if err := msg.Decode(bytes.NewReader(tc.payload)); err == nil {
				t.Error("hostile count accepted")
			}
		})
	}
}
