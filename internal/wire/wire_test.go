package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"repro/internal/chainhash"
)

// mustAddrPort parses an addr:port string or fails the test.
func mustAddrPort(t *testing.T, s string) netip.AddrPort {
	t.Helper()
	ap, err := netip.ParseAddrPort(s)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return ap
}

func testNetAddress(t *testing.T) NetAddress {
	t.Helper()
	return NetAddress{Addr: mustAddrPort(t, "203.0.113.7:8333"),
		Services: SFNodeNetwork, Timestamp: time.Unix(1586000000, 0).UTC()}
}

// mustPayload returns msg's encoded payload or fails the test.
func mustPayload(t *testing.T, msg Message) []byte {
	t.Helper()
	b, err := msg.AppendPayload(nil)
	if err != nil {
		t.Fatalf("%s payload: %v", msg.Command(), err)
	}
	return b
}

// roundTrip frames msg over an in-memory buffer and decodes it back,
// asserting structural equality.
func roundTrip(t *testing.T, msg Message) Message {
	t.Helper()
	var buf bytes.Buffer
	if _, err := new(Encoder).WriteMessage(&buf, msg, SimNet); err != nil {
		t.Fatalf("WriteMessage(%s): %v", msg.Command(), err)
	}
	got, err := ReadMessage(&buf, SimNet)
	if err != nil {
		t.Fatalf("ReadMessage(%s): %v", msg.Command(), err)
	}
	if got.Command() != msg.Command() {
		t.Fatalf("command = %q, want %q", got.Command(), msg.Command())
	}
	if !reflect.DeepEqual(got, msg) {
		t.Fatalf("%s round trip mismatch:\n got %#v\nwant %#v",
			msg.Command(), got, msg)
	}
	return got
}

func TestVersionRoundTrip(t *testing.T) {
	na := testNetAddress(t)
	msg := &MsgVersion{
		ProtocolVersion: ProtocolVersion,
		Services:        SFNodeNetwork | SFNodeWitness,
		Timestamp:       time.Unix(1586312000, 0).UTC(),
		AddrYou:         NetAddress{Services: SFNodeNetwork, Addr: na.Addr},
		AddrMe:          NetAddress{Services: SFNodeNetwork, Addr: mustAddrPort(t, "198.51.100.3:8333")},
		Nonce:           0xdeadbeefcafe,
		UserAgent:       "/Satoshi:0.20.1/",
		StartHeight:     630000,
		Relay:           true,
	}
	roundTrip(t, msg)
}

func TestVersionMissingRelayFlag(t *testing.T) {
	// Old peers omit the trailing relay byte; decoding must default to
	// relay=true rather than failing.
	msg := &MsgVersion{
		ProtocolVersion: 60001,
		Timestamp:       time.Unix(1586312000, 0).UTC(),
		UserAgent:       "/old/",
	}
	raw := mustPayload(t, msg)
	raw = raw[:len(raw)-1] // strip relay byte
	var got MsgVersion
	if err := got.Decode(bytes.NewReader(raw)); err != nil {
		t.Fatalf("decode without relay byte: %v", err)
	}
	if !got.Relay {
		t.Error("Relay should default to true when the byte is absent")
	}
}

func TestEmptyPayloadMessages(t *testing.T) {
	roundTrip(t, &MsgVerAck{})
	roundTrip(t, &MsgGetAddr{})
}

func TestPingPongRoundTrip(t *testing.T) {
	roundTrip(t, &MsgPing{Nonce: 42})
	roundTrip(t, &MsgPong{Nonce: 42})
}

func TestRejectRoundTrip(t *testing.T) {
	roundTrip(t, &MsgReject{Cmd: CmdTx, Code: 0x10, Reason: "bad-txns"})
}

func TestAddrRoundTrip(t *testing.T) {
	msg := &MsgAddr{}
	for i := 0; i < 25; i++ {
		ap := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, byte(i), 1}), uint16(8333+i))
		msg.AddrList = append(msg.AddrList,
			NetAddress{Addr: ap, Services: SFNodeNetwork, Timestamp: time.Unix(int64(1586000000+i), 0).UTC()})
	}
	roundTrip(t, msg)
}

func TestAddrIPv6RoundTrip(t *testing.T) {
	msg := &MsgAddr{AddrList: []NetAddress{
		NetAddress{Addr: mustAddrPort(t, "[2001:db8::1]:8333"), Services: SFNodeNetwork,
			Timestamp: time.Unix(1586000000, 0).UTC()},
	}}
	roundTrip(t, msg)
}

func TestAddrTooMany(t *testing.T) {
	msg := &MsgAddr{AddrList: make([]NetAddress, MaxAddrPerMsg+1)}
	if _, err := msg.AppendPayload(nil); !errors.Is(err, ErrTooMany) {
		t.Errorf("encode err = %v, want ErrTooMany", err)
	}
}

func TestAddrDecodeTooMany(t *testing.T) {
	var msg MsgAddr
	raw := appendVarInt(nil, MaxAddrPerMsg+1)
	if err := msg.Decode(bytes.NewReader(raw)); !errors.Is(err, ErrTooMany) {
		t.Errorf("decode err = %v, want ErrTooMany", err)
	}
}

func makeHash(seed byte) (h [32]byte) {
	for i := range h {
		h[i] = seed + byte(i)
	}
	return h
}

func TestInvRoundTrip(t *testing.T) {
	msg := &MsgInv{}
	msg.InvList = []InvVect{
		{Type: InvTypeTx, Hash: makeHash(1)},
		{Type: InvTypeBlock, Hash: makeHash(2)},
		{Type: InvTypeCmpctBlock, Hash: makeHash(3)},
	}
	roundTrip(t, msg)

	gd := &MsgGetData{}
	gd.InvList = msg.InvList
	roundTrip(t, gd)

	nf := &MsgNotFound{}
	nf.InvList = msg.InvList[:1]
	roundTrip(t, nf)
}

func makeTestTx(seed byte) MsgTx {
	return MsgTx{
		Version: 2,
		TxIn: []TxIn{{
			PreviousOutPoint: OutPoint{Hash: makeHash(seed), Index: uint32(seed)},
			SignatureScript:  []byte{0x01, seed},
			Sequence:         0xffffffff,
		}},
		TxOut: []TxOut{{
			Value:    50_0000_0000,
			PkScript: []byte{0x76, 0xa9, seed},
		}},
		LockTime: 0,
	}
}

func TestTxRoundTrip(t *testing.T) {
	tx := makeTestTx(7)
	roundTrip(t, &tx)
}

func TestTxSerializeSizeMatchesEncoding(t *testing.T) {
	tx := makeTestTx(9)
	raw := mustPayload(t, &tx)
	if got := tx.SerializeSize(); got != len(raw) {
		t.Errorf("SerializeSize = %d, encoded %d bytes", got, len(raw))
	}
}

func TestTxHashDeterministic(t *testing.T) {
	a, b := makeTestTx(5), makeTestTx(5)
	if a.TxHash() != b.TxHash() {
		t.Error("identical transactions must share a hash")
	}
	c := makeTestTx(6)
	if a.TxHash() == c.TxHash() {
		t.Error("distinct transactions must not share a hash")
	}
}

// TestTxIDMemo pins the txid memo: TxID equals TxHash and takes no
// allocation, a value copy of a hashed transaction carries the memo,
// TxHash still hashes the current bytes, and a pooled Decoder that reads
// two transactions in a row into one recycled value resets the memo
// between them.
func TestTxIDMemo(t *testing.T) {
	tx := makeTestTx(5)
	want := tx.TxHash()
	fresh := makeTestTx(5)
	if n := testing.AllocsPerRun(1, func() { _ = fresh.TxID() }); n != 0 {
		t.Errorf("first TxID allocates %.1f, want 0", n)
	}
	if got := tx.TxID(); got != want {
		t.Fatalf("TxID = %s, TxHash = %s", got, want)
	}
	cp := tx
	if n := testing.AllocsPerRun(100, func() { _ = cp.TxID() }); n != 0 {
		t.Errorf("warm TxID allocates %.1f per run, want 0", n)
	}
	// TxHash is the pure computation: it sees a change the memo does not.
	// (Mutating a hashed transaction is what the memo forbids; the
	// wire.txhash_ns probe does it to time TxHash alone.) The copy's
	// unchanged TxID shows it reads the memo it carried over.
	cp.LockTime++
	if cp.TxHash() == want {
		t.Error("TxHash ignored a changed LockTime")
	}
	if cp.TxID() != want {
		t.Error("a value copy of a hashed transaction did not carry the memo")
	}

	frame := func(m Message) []byte {
		var buf bytes.Buffer
		if _, err := new(Encoder).WriteMessage(&buf, m, SimNet); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := makeTestTx(11), makeTestTx(12)
	dec := GetDecoder()
	defer dec.Release()
	var first *MsgTx
	for i, src := range []*MsgTx{&a, &b} {
		msg, err := dec.ReadMessage(bytes.NewReader(frame(src)), SimNet)
		if err != nil {
			t.Fatal(err)
		}
		got := msg.(*MsgTx)
		if i == 0 {
			first = got
		} else if got != first {
			t.Fatal("the pooled decoder did not recycle the MsgTx value; the reset goes untested")
		}
		// The recycled value must equal a fresh decode before TxID runs:
		// a stale memo left by the previous read is state a fresh value
		// never has, even with the flag reset.
		var fresh MsgTx
		if err := fresh.Decode(bytes.NewReader(src.appendTo(nil))); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, &fresh) {
			t.Errorf("read %d: recycled MsgTx differs from a fresh decode:\n%#v\n%#v", i, got, &fresh)
		}
		if id, h := got.TxID(), got.TxHash(); id != h || id != src.TxHash() {
			t.Errorf("read %d: TxID %s, TxHash %s, sent %s", i, id, h, src.TxHash())
		}
	}
}

// TestInvMemo pins the announcement memo: Inv returns one one-entry INV
// per transaction or block, built once and shared by value copies, and
// Decode drops it, so a pooled Decoder's recycled MsgTx equals a fresh
// decode and builds a fresh INV for the transaction it now holds, while
// the INV it built before still names the old one.
func TestInvMemo(t *testing.T) {
	tx := makeTestTx(5)
	inv := tx.Inv()
	if want := (InvVect{Type: InvTypeTx, Hash: tx.TxHash()}); len(inv.InvList) != 1 || inv.InvList[0] != want {
		t.Fatalf("Inv = %v, want [%v]", inv.InvList, want)
	}
	cp := tx
	if cp.Inv() != inv || tx.Inv() != inv {
		t.Error("Inv is not memoised across calls and value copies")
	}
	if n := testing.AllocsPerRun(100, func() { _ = cp.Inv() }); n != 0 {
		t.Errorf("warm Inv allocates %.1f per run, want 0", n)
	}
	blk := MsgBlock{Header: BlockHeader{Version: 4, PrevBlock: makeHash(3)}, Transactions: []MsgTx{tx}}
	binv := blk.Inv()
	if want := (InvVect{Type: InvTypeBlock, Hash: blk.BlockHash()}); len(binv.InvList) != 1 || binv.InvList[0] != want || blk.Inv() != binv {
		t.Errorf("block Inv = %v, want one shared [%v]", binv.InvList, want)
	}

	frame := func(m Message) []byte {
		var buf bytes.Buffer
		if _, err := new(Encoder).WriteMessage(&buf, m, SimNet); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := makeTestTx(11), makeTestTx(12)
	dec := GetDecoder()
	defer dec.Release()
	var first *MsgTx
	var firstInv *MsgInv
	for i, src := range []*MsgTx{&a, &b} {
		msg, err := dec.ReadMessage(bytes.NewReader(frame(src)), SimNet)
		if err != nil {
			t.Fatal(err)
		}
		got := msg.(*MsgTx)
		var fresh MsgTx
		if err := fresh.Decode(bytes.NewReader(src.appendTo(nil))); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, &fresh) {
			t.Errorf("read %d: recycled MsgTx differs from a fresh decode:\n%#v\n%#v", i, got, &fresh)
		}
		gotInv := got.Inv()
		if gotInv.InvList[0].Hash != src.TxHash() {
			t.Errorf("read %d: Inv names %s, sent %s", i, gotInv.InvList[0].Hash, src.TxHash())
		}
		if i == 0 {
			first, firstInv = got, gotInv
			continue
		}
		if got != first {
			t.Fatal("the pooled decoder did not recycle the MsgTx value; the reset goes untested")
		}
		if gotInv == firstInv {
			t.Error("a recycled MsgTx kept the previous transaction's INV")
		}
		if firstInv.InvList[0].Hash != a.TxHash() {
			t.Error("decoding into a recycled MsgTx changed the INV built before")
		}
	}
	var dblk MsgBlock
	dblk.inv = binv
	if err := dblk.Decode(bytes.NewReader(frame(&blk)[headerSize:])); err != nil {
		t.Fatal(err)
	}
	if dblk.inv != nil {
		t.Error("MsgBlock.Decode kept the INV memo")
	}
}

// TestHashSharesTheFramedBytes pins hashing to the codec: TxHash is the
// double-SHA256 of exactly the payload an Encoder frames for the same
// transaction, and neither hash allocates.
func TestHashSharesTheFramedBytes(t *testing.T) {
	tx := makeTestTx(5)
	var frame bytes.Buffer
	var enc Encoder
	if _, err := enc.WriteMessage(&frame, &tx, SimNet); err != nil {
		t.Fatal(err)
	}
	if want := chainhash.DoubleSHA256(frame.Bytes()[headerSize:]); tx.TxHash() != want {
		t.Errorf("TxHash = %s, framed payload hashes to %s", tx.TxHash(), want)
	}
	if n := testing.AllocsPerRun(100, func() { _ = tx.TxHash() }); n != 0 {
		t.Errorf("TxHash allocates %.1f per run, want 0", n)
	}
	hdr := BlockHeader{Version: 4, PrevBlock: makeHash(1), Timestamp: 1586312000}
	if n := testing.AllocsPerRun(100, func() { _ = hdr.BlockHash() }); n != 0 {
		t.Errorf("BlockHash allocates %.1f per run, want 0", n)
	}
}

func TestBlockRoundTrip(t *testing.T) {
	blk := &MsgBlock{
		Header: BlockHeader{
			Version:    4,
			PrevBlock:  makeHash(11),
			MerkleRoot: makeHash(12),
			Timestamp:  1586312000,
			Bits:       0x1d00ffff,
			Nonce:      12345,
		},
		Transactions: []MsgTx{makeTestTx(1), makeTestTx(2), makeTestTx(3)},
	}
	roundTrip(t, blk)
}

func TestBlockSerializeSizeMatchesEncoding(t *testing.T) {
	blk := &MsgBlock{
		Header:       BlockHeader{Version: 4},
		Transactions: []MsgTx{makeTestTx(1), makeTestTx(2)},
	}
	raw := mustPayload(t, blk)
	if got := blk.SerializeSize(); got != len(raw) {
		t.Errorf("SerializeSize = %d, encoded %d bytes", got, len(raw))
	}
}

func TestBlockHeaderHashStable(t *testing.T) {
	h := BlockHeader{Version: 4, Timestamp: 1586312000, Bits: 0x1d00ffff}
	if h.BlockHash() != h.BlockHash() {
		t.Error("header hash must be deterministic")
	}
	h2 := h
	h2.Nonce++
	if h.BlockHash() == h2.BlockHash() {
		t.Error("nonce change must change the hash")
	}
}

func TestHeadersRoundTrip(t *testing.T) {
	msg := &MsgHeaders{Headers: []BlockHeader{
		{Version: 4, PrevBlock: makeHash(1), Timestamp: 1},
		{Version: 4, PrevBlock: makeHash(2), Timestamp: 2},
	}}
	roundTrip(t, msg)
}

func TestGetHeadersRoundTrip(t *testing.T) {
	msg := &MsgGetHeaders{
		ProtocolVersion:    ProtocolVersion,
		BlockLocatorHashes: []chainhash.Hash{makeHash(1), makeHash(9)},
		HashStop:           makeHash(30),
	}
	roundTrip(t, msg)
}

func TestSendCmpctRoundTrip(t *testing.T) {
	roundTrip(t, &MsgSendCmpct{Announce: true, Version: 1})
	roundTrip(t, &MsgSendCmpct{Announce: false, Version: 2})
}

func TestCmpctBlockRoundTrip(t *testing.T) {
	msg := &MsgCmpctBlock{
		Header: BlockHeader{Version: 4, PrevBlock: makeHash(3)},
		Nonce:  99,
		ShortIDs: []ShortID{
			{1, 2, 3, 4, 5, 6},
			{7, 8, 9, 10, 11, 12},
		},
		PrefilledTxs: []PrefilledTx{
			{Index: 0, Tx: makeTestTx(1)},
			{Index: 3, Tx: makeTestTx(2)},
		},
	}
	roundTrip(t, msg)
	if got := msg.TotalTxCount(); got != 4 {
		t.Errorf("TotalTxCount = %d, want 4", got)
	}
}

func TestCmpctBlockBadPrefilledOrder(t *testing.T) {
	msg := &MsgCmpctBlock{
		PrefilledTxs: []PrefilledTx{
			{Index: 3, Tx: makeTestTx(1)},
			{Index: 3, Tx: makeTestTx(2)}, // duplicate index
		},
	}
	if _, err := msg.AppendPayload(nil); err == nil {
		t.Error("non-increasing prefilled indexes: want error")
	}
}

func TestGetBlockTxnRoundTrip(t *testing.T) {
	msg := &MsgGetBlockTxn{
		BlockHash: makeHash(8),
		Indexes:   []uint16{0, 2, 7, 100},
	}
	roundTrip(t, msg)
}

func TestBlockTxnRoundTrip(t *testing.T) {
	msg := &MsgBlockTxn{
		BlockHash:    makeHash(8),
		Transactions: []MsgTx{makeTestTx(1), makeTestTx(4)},
	}
	roundTrip(t, msg)
}

func TestComputeShortIDProperties(t *testing.T) {
	blockHash := [32]byte(makeHash(1))
	a := ComputeShortID(blockHash, 7, makeHash(2))
	b := ComputeShortID(blockHash, 7, makeHash(2))
	if a != b {
		t.Error("short ID must be deterministic")
	}
	if a == ComputeShortID(blockHash, 8, makeHash(2)) {
		t.Error("nonce must alter the short ID")
	}
	if a == ComputeShortID(blockHash, 7, makeHash(3)) {
		t.Error("txid must alter the short ID")
	}
}

func TestReadMessageBadMagic(t *testing.T) {
	var buf bytes.Buffer
	if _, err := new(Encoder).WriteMessage(&buf, &MsgPing{Nonce: 1}, MainNet); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMessage(&buf, SimNet); !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestReadMessageBadChecksum(t *testing.T) {
	var buf bytes.Buffer
	if _, err := new(Encoder).WriteMessage(&buf, &MsgPing{Nonce: 1}, SimNet); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-1] ^= 0xff // corrupt payload
	if _, err := ReadMessage(bytes.NewReader(raw), SimNet); !errors.Is(err, ErrBadChecksum) {
		t.Errorf("err = %v, want ErrBadChecksum", err)
	}
}

func TestReadMessageUnknownCommand(t *testing.T) {
	var buf bytes.Buffer
	hdr := &messageHeader{magic: SimNet, command: "bogus"}
	hdr.checksum = [4]byte{0x5d, 0xf6, 0xe0, 0xe2} // checksum of empty payload
	if _, err := writeMessageHeader(&buf, hdr); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMessage(&buf, SimNet); !errors.Is(err, ErrUnknownCommand) {
		t.Errorf("err = %v, want ErrUnknownCommand", err)
	}
}

func TestReadMessageTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if _, err := new(Encoder).WriteMessage(&buf, &MsgPing{Nonce: 1}, SimNet); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:buf.Len()-3]
	_, err := ReadMessage(bytes.NewReader(raw), SimNet)
	if err == nil {
		t.Fatal("truncated payload: want error")
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("err = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestReadMessageOversizedHeader(t *testing.T) {
	hdr := &messageHeader{magic: SimNet, command: CmdPing, length: MaxMessagePayload + 1}
	var buf bytes.Buffer
	if _, err := writeMessageHeader(&buf, hdr); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMessage(&buf, SimNet); !errors.Is(err, ErrPayloadTooLarge) {
		t.Errorf("err = %v, want ErrPayloadTooLarge", err)
	}
}

func TestWriteMessageStream(t *testing.T) {
	// Multiple messages over one stream must decode in order.
	var buf bytes.Buffer
	msgs := []Message{
		&MsgPing{Nonce: 1},
		&MsgGetAddr{},
		&MsgPong{Nonce: 2},
	}
	for _, m := range msgs {
		if _, err := new(Encoder).WriteMessage(&buf, m, SimNet); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		got, err := ReadMessage(&buf, SimNet)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if got.Command() != want.Command() {
			t.Errorf("message %d command = %s, want %s", i, got.Command(), want.Command())
		}
	}
}

func TestVarIntRoundTrip(t *testing.T) {
	values := []uint64{
		0, 1, 0xfc, 0xfd, 0xfe, 0xffff, 0x10000,
		0xffffffff, 0x100000000, 1<<64 - 1,
	}
	for _, v := range values {
		raw := appendVarInt(nil, v)
		if len(raw) != varIntSerializeSize(v) {
			t.Errorf("value %d: size %d, varIntSerializeSize %d",
				v, len(raw), varIntSerializeSize(v))
		}
		got, err := readVarInt(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("read %d: %v", v, err)
		}
		if got != v {
			t.Errorf("round trip %d -> %d", v, got)
		}
	}
}

func TestVarIntNonCanonical(t *testing.T) {
	cases := [][]byte{
		{0xfd, 0x01, 0x00},                               // 1 as uint16
		{0xfe, 0x01, 0x00, 0x00, 0x00},                   // 1 as uint32
		{0xff, 0x01, 0, 0, 0, 0, 0, 0, 0},                // 1 as uint64
		{0xfe, 0xff, 0xff, 0x00, 0x00},                   // 0xffff as uint32
		{0xff, 0xff, 0xff, 0xff, 0xff, 0x00, 0, 0, 0x00}, // fits uint32
	}
	for i, raw := range cases {
		if _, err := readVarInt(bytes.NewReader(raw)); err == nil {
			t.Errorf("case %d: non-canonical varint accepted", i)
		}
	}
}

func TestVarStringRoundTrip(t *testing.T) {
	for _, s := range []string{"", "a", "/Satoshi:0.20.1/", string(make([]byte, 300))} {
		got, err := readVarString(bytes.NewReader(appendVarString(nil, s)))
		if err != nil {
			t.Fatal(err)
		}
		if got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func TestVarStringTooLong(t *testing.T) {
	raw := appendVarInt(nil, maxVarStringLen+1)
	if _, err := readVarString(bytes.NewReader(raw)); err == nil {
		t.Error("oversized var string accepted")
	}
}

func TestNetAddressIPv4Mapping(t *testing.T) {
	// IPv4 addresses travel as 4-in-6 and must come back as plain IPv4.
	na := NetAddress{Addr: mustAddrPort(t, "192.0.2.1:8333"), Services: SFNodeNetwork,
		Timestamp: time.Unix(1586000000, 0).UTC()}
	var got NetAddress
	raw := appendNetAddress(nil, &na, true)
	if err := readNetAddress(bytes.NewReader(raw), &got, true); err != nil {
		t.Fatal(err)
	}
	if !got.Addr.Addr().Is4() {
		t.Errorf("decoded address %v should be IPv4", got.Addr)
	}
	if got.Addr != na.Addr {
		t.Errorf("addr = %v, want %v", got.Addr, na.Addr)
	}
}

func TestInvTypeString(t *testing.T) {
	if InvTypeTx.String() != "MSG_TX" {
		t.Errorf("InvTypeTx = %q", InvTypeTx.String())
	}
	if InvType(77).String() == "" {
		t.Error("unknown InvType should still render")
	}
}

func TestBitcoinNetString(t *testing.T) {
	for _, n := range []BitcoinNet{MainNet, TestNet3, SimNet, BitcoinNet(1)} {
		if n.String() == "" {
			t.Errorf("BitcoinNet(%#x).String() empty", uint32(n))
		}
	}
}

// Property: VarInt round-trips for random values.
func TestVarIntRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		v := rng.Uint64() >> uint(rng.Intn(64))
		got, err := readVarInt(bytes.NewReader(appendVarInt(nil, v)))
		if err != nil || got != v {
			t.Fatalf("round trip %d -> %d (err %v)", v, got, err)
		}
	}
}

// Property: random ADDR messages round-trip through full framing.
func TestAddrRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 100; i++ {
		n := rng.Intn(60)
		msg := &MsgAddr{AddrList: make([]NetAddress, n)}
		for j := range msg.AddrList {
			var ipBytes [4]byte
			rng.Read(ipBytes[:])
			if ipBytes[0] == 0 {
				ipBytes[0] = 1 // avoid 0.x addresses for realism
			}
			ap := netip.AddrPortFrom(netip.AddrFrom4(ipBytes), uint16(rng.Intn(65535)+1))
			msg.AddrList[j] = NetAddress{Addr: ap, Services: ServiceFlag(rng.Uint64()),
				Timestamp: time.Unix(rng.Int63n(2_000_000_000), 0).UTC()}
		}
		var buf bytes.Buffer
		if _, err := new(Encoder).WriteMessage(&buf, msg, SimNet); err != nil {
			t.Fatal(err)
		}
		got, err := ReadMessage(&buf, SimNet)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, msg) {
			t.Fatalf("iteration %d: mismatch", i)
		}
	}
}

// Property: random transactions round-trip and their declared size is
// exact.
func TestTxRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 200; i++ {
		tx := MsgTx{Version: int32(rng.Int31()), LockTime: rng.Uint32()}
		for j := 0; j < rng.Intn(4); j++ {
			script := make([]byte, rng.Intn(80))
			rng.Read(script)
			var h [32]byte
			rng.Read(h[:])
			tx.TxIn = append(tx.TxIn, TxIn{
				PreviousOutPoint: OutPoint{Hash: h, Index: rng.Uint32()},
				SignatureScript:  script,
				Sequence:         rng.Uint32(),
			})
		}
		for j := 0; j < rng.Intn(4); j++ {
			script := make([]byte, rng.Intn(40))
			rng.Read(script)
			tx.TxOut = append(tx.TxOut, TxOut{
				Value:    rng.Int63(),
				PkScript: script,
			})
		}
		raw := mustPayload(t, &tx)
		if len(raw) != tx.SerializeSize() {
			t.Fatalf("iteration %d: size mismatch %d vs %d", i, len(raw), tx.SerializeSize())
		}
		var got MsgTx
		if err := got.Decode(bytes.NewReader(raw)); err != nil {
			t.Fatal(err)
		}
		// Normalize nil vs empty slices for comparison.
		if got.TxHash() != tx.TxHash() {
			t.Fatalf("iteration %d: hash mismatch", i)
		}
	}
}

func BenchmarkWriteMessageAddr(b *testing.B) {
	msg := &MsgAddr{AddrList: make([]NetAddress, MaxAddrPerMsg)}
	for i := range msg.AddrList {
		ap := netip.AddrPortFrom(netip.AddrFrom4([4]byte{byte(i), byte(i >> 8), 1, 1}), 8333)
		msg.AddrList[i] = NetAddress{Addr: ap, Services: SFNodeNetwork, Timestamp: time.Unix(1586000000, 0)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if _, err := new(Encoder).WriteMessage(&buf, msg, SimNet); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadMessageAddr(b *testing.B) {
	msg := &MsgAddr{AddrList: make([]NetAddress, MaxAddrPerMsg)}
	for i := range msg.AddrList {
		ap := netip.AddrPortFrom(netip.AddrFrom4([4]byte{byte(i), byte(i >> 8), 1, 1}), 8333)
		msg.AddrList[i] = NetAddress{Addr: ap, Services: SFNodeNetwork, Timestamp: time.Unix(1586000000, 0)}
	}
	var buf bytes.Buffer
	if _, err := new(Encoder).WriteMessage(&buf, msg, SimNet); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadMessage(bytes.NewReader(raw), SimNet); err != nil {
			b.Fatal(err)
		}
	}
}
