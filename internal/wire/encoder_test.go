package wire

import (
	"bytes"
	"fmt"
	"io"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"repro/internal/chainhash"
)

func parityAddrPort(b byte) netip.AddrPort {
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 1, b, 1}), 8333)
}

// writeMessageHeader writes the 24-byte header the two-pass oracle below
// frames with, and returns the number of bytes actually written, so
// short-write totals stay truthful.
func writeMessageHeader(w io.Writer, h *messageHeader) (int, error) {
	var buf [headerSize]byte
	putUint32(buf[0:4], uint32(h.magic))
	copy(buf[4:4+CommandSize], h.command) // zero-padded by array init
	putUint32(buf[16:20], h.length)
	copy(buf[20:24], h.checksum[:])
	return w.Write(buf[:])
}

// writeMessageBuffered is the two-pass framing oracle: build the payload
// on its own, write the header, write the payload. It is the reference
// implementation for FuzzEncoderParity, which pins the Encoder's
// single-pass back-filled frame to this byte stream.
func writeMessageBuffered(w io.Writer, msg Message, net BitcoinNet) (int, error) {
	payload, err := msg.AppendPayload(nil)
	if err != nil {
		return 0, fmt.Errorf("wire: encode %s: %w", msg.Command(), err)
	}
	if len(payload) > MaxMessagePayload {
		return 0, fmt.Errorf("%w: %s payload is %d bytes", ErrPayloadTooLarge,
			msg.Command(), len(payload))
	}
	if len(msg.Command()) > CommandSize {
		return 0, fmt.Errorf("wire: command %q exceeds %d bytes",
			msg.Command(), CommandSize)
	}
	hdr := &messageHeader{
		magic:    net,
		command:  msg.Command(),
		length:   uint32(len(payload)),
		checksum: chainhash.Checksum(payload),
	}
	hn, err := writeMessageHeader(w, hdr)
	if err != nil {
		return hn, fmt.Errorf("wire: write header: %w", err)
	}
	n, err := w.Write(payload)
	if err != nil {
		return hn + n, fmt.Errorf("wire: write payload: %w", err)
	}
	return hn + n, nil
}

// readMessageBuffered is the allocation-per-message read oracle for
// FuzzEncoderParity: fresh header scratch, fresh payload, fresh message.
func readMessageBuffered(r io.Reader, net BitcoinNet) (Message, error) {
	var scratch [headerSize]byte
	hdr, err := readMessageHeader(r, &scratch)
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
	payload := make([]byte, hdr.length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("wire: read %s payload: %w", hdr.command, err)
	}
	if sum := chainhash.Checksum(payload); sum != hdr.checksum {
		return nil, fmt.Errorf("%w: %s payload", ErrBadChecksum, hdr.command)
	}
	msg, err := makeEmptyMessage(hdr.command)
	if err != nil {
		return nil, err
	}
	if err := msg.Decode(bytes.NewReader(payload)); err != nil {
		return nil, fmt.Errorf("wire: decode %s: %w", hdr.command, err)
	}
	return msg, nil
}

// FuzzEncoderParity is the differential fuzz target pinning the pooled
// Encoder/Decoder framing to the two-pass oracle above: any frame the
// oracle reader accepts must decode identically through a pooled Decoder
// (twice, to exercise scratch and message reuse), and the decoded message
// must re-frame byte-identically through both writers.
func FuzzEncoderParity(f *testing.F) {
	seeds := []Message{
		&MsgPing{Nonce: 1},
		&MsgPong{Nonce: 2},
		&MsgVerAck{},
		&MsgGetAddr{},
		&MsgVersion{UserAgent: "/parity/", Timestamp: time.Unix(1586000000, 0)},
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
		&MsgReject{Cmd: CmdTx, Code: 0x10, Reason: "bad"},
	}
	for _, msg := range seeds {
		var buf bytes.Buffer
		if _, err := writeMessageBuffered(&buf, msg, SimNet); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("not a frame"))

	f.Fuzz(func(t *testing.T, data []byte) {
		oracle, oracleErr := readMessageBuffered(bytes.NewReader(data), SimNet)
		dec := GetDecoder()
		defer dec.Release()
		pooled, pooledErr := dec.ReadMessage(bytes.NewReader(data), SimNet)
		if (oracleErr == nil) != (pooledErr == nil) {
			t.Fatalf("acceptance mismatch: oracle err %v, pooled err %v",
				oracleErr, pooledErr)
		}
		if oracleErr != nil {
			return
		}
		if !reflect.DeepEqual(oracle, pooled) {
			t.Fatalf("decode mismatch for %q:\noracle %#v\npooled %#v",
				oracle.Command(), oracle, pooled)
		}
		// Second decode through the same Decoder reuses scratch and the
		// cached message value; the result must not change.
		again, err := dec.ReadMessage(bytes.NewReader(data), SimNet)
		if err != nil {
			t.Fatalf("pooled re-decode of %q: %v", oracle.Command(), err)
		}
		if !reflect.DeepEqual(oracle, again) {
			t.Fatalf("reused-decoder mismatch for %q", oracle.Command())
		}

		var bufOracle, bufPooled bytes.Buffer
		nOracle, err := writeMessageBuffered(&bufOracle, oracle, SimNet)
		if err != nil {
			t.Fatalf("oracle re-encode of %q: %v", oracle.Command(), err)
		}
		enc := GetEncoder()
		defer enc.Release()
		nPooled, err := enc.WriteMessage(&bufPooled, again, SimNet)
		if err != nil {
			t.Fatalf("pooled re-encode of %q: %v", oracle.Command(), err)
		}
		if nOracle != nPooled {
			t.Fatalf("byte count mismatch for %q: oracle %d, pooled %d",
				oracle.Command(), nOracle, nPooled)
		}
		if !bytes.Equal(bufOracle.Bytes(), bufPooled.Bytes()) {
			t.Fatalf("frame mismatch for %q:\noracle %x\npooled %x",
				oracle.Command(), bufOracle.Bytes(), bufPooled.Bytes())
		}
	})
}

// TestEncoderReuseNoPoisoning recycles one Encoder across messages of very
// different sizes and shapes: no byte of an earlier frame may leak into a
// later one.
func TestEncoderReuseNoPoisoning(t *testing.T) {
	big := &MsgAddr{AddrList: make([]NetAddress, 200)}
	for i := range big.AddrList {
		big.AddrList[i] = NetAddress{
			Timestamp: time.Unix(1586000000+int64(i), 0).UTC(),
			Services:  SFNodeNetwork,
			Addr:      parityAddrPort(byte(i)),
		}
	}
	small := &MsgPing{Nonce: 0xdeadbeef}

	enc := GetEncoder()
	defer enc.Release()
	var scratch bytes.Buffer
	if _, err := enc.WriteMessage(&scratch, big, SimNet); err != nil {
		t.Fatal(err)
	}

	var got, want bytes.Buffer
	if _, err := enc.WriteMessage(&got, small, SimNet); err != nil {
		t.Fatal(err)
	}
	if _, err := writeMessageBuffered(&want, small, SimNet); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("recycled encoder poisoned the frame:\ngot  %x\nwant %x",
			got.Bytes(), want.Bytes())
	}

	// Pool round-trip: release and re-acquire must behave the same.
	enc2 := GetEncoder()
	defer enc2.Release()
	var got2 bytes.Buffer
	if _, err := enc2.WriteMessage(&got2, small, SimNet); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2.Bytes(), want.Bytes()) {
		t.Fatal("pooled encoder poisoned the frame after Release/Get")
	}
}

// TestDecoderReuseNoPoisoning decodes a large ADDR, then a smaller one,
// then an unrelated message on the same Decoder; earlier payload content
// must not survive into later results.
func TestDecoderReuseNoPoisoning(t *testing.T) {
	mkAddrMsg := func(n int, salt byte) *MsgAddr {
		m := &MsgAddr{AddrList: make([]NetAddress, n)}
		for i := range m.AddrList {
			m.AddrList[i] = NetAddress{
				Timestamp: time.Unix(1586000000+int64(i), 0).UTC(),
				Services:  SFNodeWitness,
				Addr:      parityAddrPort(byte(i) ^ salt),
			}
		}
		return m
	}
	frame := func(m Message) []byte {
		var buf bytes.Buffer
		if _, err := writeMessageBuffered(&buf, m, SimNet); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	big := mkAddrMsg(50, 0xa5)
	small := mkAddrMsg(2, 0x3c)

	dec := GetDecoder()
	defer dec.Release()
	if _, err := dec.ReadMessage(bytes.NewReader(frame(big)), SimNet); err != nil {
		t.Fatal(err)
	}
	got, err := dec.ReadMessage(bytes.NewReader(frame(small)), SimNet)
	if err != nil {
		t.Fatal(err)
	}
	gotAddr, ok := got.(*MsgAddr)
	if !ok {
		t.Fatalf("decoded %T, want *MsgAddr", got)
	}
	if len(gotAddr.AddrList) != 2 {
		t.Fatalf("recycled decoder kept %d addresses, want 2", len(gotAddr.AddrList))
	}
	if !reflect.DeepEqual(gotAddr.AddrList, small.AddrList) {
		t.Fatalf("recycled decoder poisoned the result:\ngot  %+v\nwant %+v",
			gotAddr.AddrList, small.AddrList)
	}

	ping := &MsgPing{Nonce: 42}
	gotPing, err := dec.ReadMessage(bytes.NewReader(frame(ping)), SimNet)
	if err != nil {
		t.Fatal(err)
	}
	if n := gotPing.(*MsgPing).Nonce; n != 42 {
		t.Fatalf("ping nonce = %d, want 42", n)
	}
}

// TestDecoderReleaseDropsOversized reads a block frame above
// maxRetainedScratch through a pooled Decoder: Release must let go of both
// the payload scratch and the decoded block cached for reuse, or the pool
// pins megabytes per idle Decoder.
func TestDecoderReleaseDropsOversized(t *testing.T) {
	script := make([]byte, maxScriptLen)
	blk := &MsgBlock{Transactions: make([]MsgTx, 1+maxRetainedScratch/maxScriptLen)}
	for i := range blk.Transactions {
		blk.Transactions[i].TxIn = []TxIn{{SignatureScript: script}}
	}
	var frame bytes.Buffer
	if _, err := new(Encoder).WriteMessage(&frame, blk, SimNet); err != nil {
		t.Fatal(err)
	}

	dec := GetDecoder()
	if _, err := dec.ReadMessage(&frame, SimNet); err != nil {
		t.Fatal(err)
	}
	if cap(dec.payload) <= maxRetainedScratch || dec.msgs[CmdBlock] == nil {
		t.Fatalf("setup: payload cap %d, cached block %v", cap(dec.payload), dec.msgs[CmdBlock])
	}
	dec.Release()
	if dec.payload != nil || len(dec.msgs) != 0 {
		t.Errorf("released Decoder retains payload cap %d and %d cached messages",
			cap(dec.payload), len(dec.msgs))
	}

	// An ordinary frame keeps both for the next user.
	dec = new(Decoder)
	frame.Reset()
	if _, err := new(Encoder).WriteMessage(&frame, &MsgPing{Nonce: 1}, SimNet); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.ReadMessage(&frame, SimNet); err != nil {
		t.Fatal(err)
	}
	dec.Release()
	if dec.payload == nil || dec.msgs[CmdPing] == nil {
		t.Error("released Decoder dropped small scratch or its cached message")
	}
}

// TestWriteMessageHeaderShortWrite pins the satellite fix: a frame write
// that fails partway must report the bytes actually written, not a
// fabricated headerSize + n total.
func TestWriteMessageHeaderShortWrite(t *testing.T) {
	// limitWriter accepts `limit` bytes then fails.
	for _, limit := range []int{0, 5, headerSize, headerSize + 3} {
		lw := &limitWriter{limit: limit}
		n, err := writeMessageBuffered(lw, &MsgPing{Nonce: 9}, SimNet)
		if err == nil {
			t.Fatalf("limit %d: want error", limit)
		}
		if n != lw.written {
			t.Errorf("limit %d: reported %d bytes, actually wrote %d",
				limit, n, lw.written)
		}
		lw2 := &limitWriter{limit: limit}
		enc := GetEncoder()
		n2, err := enc.WriteMessage(lw2, &MsgPing{Nonce: 9}, SimNet)
		enc.Release()
		if err == nil {
			t.Fatalf("limit %d: pooled want error", limit)
		}
		if n2 != lw2.written {
			t.Errorf("limit %d: pooled reported %d bytes, actually wrote %d",
				limit, n2, lw2.written)
		}
	}
}

// limitWriter writes up to limit bytes total, then errors, tracking the
// bytes it actually accepted.
type limitWriter struct {
	limit   int
	written int
}

func (w *limitWriter) Write(p []byte) (int, error) {
	room := w.limit - w.written
	if room >= len(p) {
		w.written += len(p)
		return len(p), nil
	}
	if room < 0 {
		room = 0
	}
	w.written += room
	return room, errTestShortWrite
}

var errTestShortWrite = &shortWriteError{}

type shortWriteError struct{}

func (*shortWriteError) Error() string { return "test: short write" }

// TestInternCommand checks every known command interns to its constant
// (same backing string, no allocation) and unknown commands still parse.
func TestInternCommand(t *testing.T) {
	known := []string{
		CmdVersion, CmdVerAck, CmdAddr, CmdGetAddr, CmdInv, CmdGetData,
		CmdTx, CmdBlock, CmdHeaders, CmdGetHeaders, CmdPing, CmdPong,
		CmdSendCmpct, CmdCmpctBlock, CmdGetBlockTxn, CmdBlockTxn,
		CmdReject, CmdNotFound,
	}
	for _, cmd := range known {
		if got := internCommand([]byte(cmd)); got != cmd {
			t.Errorf("internCommand(%q) = %q", cmd, got)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf := [CommandSize]byte{'p', 'i', 'n', 'g'}
		if internCommand(buf[:4]) != CmdPing {
			t.Fatal("intern mismatch")
		}
	})
	if allocs != 0 {
		t.Errorf("internCommand allocates %.1f per run, want 0", allocs)
	}
	if got := internCommand([]byte("bogus")); got != "bogus" {
		t.Errorf("unknown command = %q, want \"bogus\"", got)
	}
}

// BenchmarkWireRoundTrip measures a full encode+decode of a relay-mix
// frame pair (PING and a one-entry INV) through a held Encoder/Decoder.
// Its BENCH_baseline.json entry at 0 allocs/op makes it a zero-allocation
// contract that benchguard enforces.
func BenchmarkWireRoundTrip(b *testing.B) {
	var enc Encoder
	var dec Decoder
	var buf bytes.Buffer
	ping := &MsgPing{}
	inv := &MsgInv{}
	inv.InvList = []InvVect{{Type: InvTypeTx}}

	// Warm scratch, the decoder's message cache, and the buffer.
	for i := 0; i < 2; i++ {
		buf.Reset()
		if _, err := enc.WriteMessage(&buf, ping, SimNet); err != nil {
			b.Fatal(err)
		}
		if _, err := enc.WriteMessage(&buf, inv, SimNet); err != nil {
			b.Fatal(err)
		}
		if _, err := dec.ReadMessage(&buf, SimNet); err != nil {
			b.Fatal(err)
		}
		if _, err := dec.ReadMessage(&buf, SimNet); err != nil {
			b.Fatal(err)
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		ping.Nonce = uint64(i)
		inv.InvList[0].Hash[0] = byte(i)
		if _, err := enc.WriteMessage(&buf, ping, SimNet); err != nil {
			b.Fatal(err)
		}
		if _, err := enc.WriteMessage(&buf, inv, SimNet); err != nil {
			b.Fatal(err)
		}
		got, err := dec.ReadMessage(&buf, SimNet)
		if err != nil {
			b.Fatal(err)
		}
		if got.(*MsgPing).Nonce != uint64(i) {
			b.Fatal("nonce mismatch")
		}
		got, err = dec.ReadMessage(&buf, SimNet)
		if err != nil {
			b.Fatal(err)
		}
		if got.(*MsgInv).InvList[0].Hash[0] != byte(i) {
			b.Fatal("inv mismatch")
		}
	}
}
