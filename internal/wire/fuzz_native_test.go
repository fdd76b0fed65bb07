package wire

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/chainhash"
)

// FuzzReadMessage is a native fuzz target over the frame decoder. Under
// plain `go test` it exercises the seed corpus; under `go test -fuzz` it
// explores mutations. The invariant: ReadMessage never panics, and any
// message it accepts re-encodes through WriteMessage without error.
func FuzzReadMessage(f *testing.F) {
	// Seed with valid frames of every message family plus garbage.
	seeds := []Message{
		&MsgPing{Nonce: 7},
		&MsgVersion{UserAgent: "/fuzz/", Timestamp: time.Unix(1586000000, 0)},
		&MsgAddr{AddrList: make([]NetAddress, 2)},
		&MsgInv{invList{InvList: make([]InvVect, 1)}},
		&MsgTx{Version: 1, TxIn: []TxIn{{SignatureScript: []byte{1}}}},
		&MsgHeaders{Headers: make([]BlockHeader, 1)},
		&MsgCmpctBlock{ShortIDs: make([]ShortID, 1)},
		&MsgGetBlockTxn{Indexes: []uint16{0}},
	}
	for _, msg := range seeds {
		var buf bytes.Buffer
		if _, err := new(Encoder).WriteMessage(&buf, msg, SimNet); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("garbage"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := ReadMessage(bytes.NewReader(data), SimNet)
		if err != nil {
			return // rejection is fine; panics are not
		}
		var buf bytes.Buffer
		if _, err := new(Encoder).WriteMessage(&buf, msg, SimNet); err != nil {
			t.Fatalf("accepted message %q fails to re-encode: %v", msg.Command(), err)
		}
	})
}

// FuzzVarInt checks the canonical varint round trip under mutation.
func FuzzVarInt(f *testing.F) {
	f.Add([]byte{0x05})
	f.Add([]byte{0xfd, 0xff, 0x00})
	f.Add([]byte{0xff, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := readVarInt(bytes.NewReader(data))
		if err != nil {
			return
		}
		back, err := readVarInt(bytes.NewReader(appendVarInt(nil, v)))
		if err != nil || back != v {
			t.Fatalf("varint %d round trip: %d, %v", v, back, err)
		}
	})
}

// FuzzReadWriteMessage strengthens FuzzReadMessage to a full round-trip
// invariant: any frame the decoder accepts must re-encode, decode again,
// and re-encode to byte-identical output — i.e. one decode/encode pass
// reaches a serialization fixed point. This is what protects the
// persisted trace formats and the simulator's size accounting from
// drifting between encoder and decoder.
func FuzzReadWriteMessage(f *testing.F) {
	seeds := []Message{
		&MsgPing{Nonce: 1},
		&MsgPong{Nonce: 2},
		&MsgVerAck{},
		&MsgGetAddr{},
		&MsgVersion{UserAgent: "/rt/", Timestamp: time.Unix(1586000000, 0)},
		&MsgAddr{AddrList: make([]NetAddress, 3)},
		&MsgInv{invList{InvList: make([]InvVect, 2)}},
		&MsgGetData{invList{InvList: make([]InvVect, 1)}},
		&MsgTx{Version: 2, TxIn: []TxIn{{SignatureScript: []byte{0xab}}}},
		&MsgBlock{Header: BlockHeader{Version: 1}},
		&MsgHeaders{Headers: make([]BlockHeader, 2)},
		&MsgGetHeaders{BlockLocatorHashes: make([]chainhash.Hash, 1)},
		&MsgSendCmpct{Announce: true, Version: 1},
		&MsgCmpctBlock{ShortIDs: make([]ShortID, 2)},
		&MsgGetBlockTxn{Indexes: []uint16{0, 1}},
	}
	for _, msg := range seeds {
		var buf bytes.Buffer
		if _, err := new(Encoder).WriteMessage(&buf, msg, SimNet); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef})

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := ReadMessage(bytes.NewReader(data), SimNet)
		if err != nil {
			return
		}
		var first bytes.Buffer
		if _, err := new(Encoder).WriteMessage(&first, msg, SimNet); err != nil {
			t.Fatalf("accepted %q fails to encode: %v", msg.Command(), err)
		}
		again, err := ReadMessage(bytes.NewReader(first.Bytes()), SimNet)
		if err != nil {
			t.Fatalf("re-encoded %q fails to decode: %v", msg.Command(), err)
		}
		var second bytes.Buffer
		if _, err := new(Encoder).WriteMessage(&second, again, SimNet); err != nil {
			t.Fatalf("second encode of %q: %v", msg.Command(), err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("%q encode not a fixed point: %d vs %d bytes",
				msg.Command(), first.Len(), second.Len())
		}
	})
}
