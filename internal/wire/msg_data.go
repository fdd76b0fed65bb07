package wire

import (
	"bytes"
	"fmt"

	"repro/internal/chainhash"
)

// InvVect is a single inventory vector: a typed object hash.
type InvVect struct {
	// Type of the referenced object.
	Type InvType
	// Hash of the referenced object.
	Hash chainhash.Hash
}

func readInvVect(r *bytes.Reader, iv *InvVect) error {
	t, err := readUint32(r)
	if err != nil {
		return err
	}
	iv.Type = InvType(t)
	return readFull(r, iv.Hash[:])
}

// invList is the shared payload shape of INV, GETDATA, and NOTFOUND.
type invList struct {
	InvList []InvVect
}

// AppendPayload implements Message for the embedding types.
func (m *invList) AppendPayload(b []byte) ([]byte, error) {
	if len(m.InvList) > MaxInvPerMsg {
		return nil, fmt.Errorf("%w: %d inventory vectors (max %d)", ErrTooMany,
			len(m.InvList), MaxInvPerMsg)
	}
	b = appendVarInt(b, uint64(len(m.InvList)))
	for i := range m.InvList {
		b = appendUint32(b, uint32(m.InvList[i].Type))
		b = append(b, m.InvList[i].Hash[:]...)
	}
	return b, nil
}

// Decode implements Message for the embedding types.
func (m *invList) Decode(r *bytes.Reader) error {
	count, err := readVarInt(r)
	if err != nil {
		return err
	}
	if count > MaxInvPerMsg {
		return fmt.Errorf("%w: %d inventory vectors (max %d)", ErrTooMany,
			count, MaxInvPerMsg)
	}
	// Reuse capacity when a Decoder recycles this message; every element
	// is fully overwritten below. A fresh message still allocates (even
	// for count 0) so fresh and recycled decodes compare equal.
	if m.InvList != nil && cap(m.InvList) >= int(count) {
		m.InvList = m.InvList[:count]
	} else {
		m.InvList = make([]InvVect, count)
	}
	for i := range m.InvList {
		if err := readInvVect(r, &m.InvList[i]); err != nil {
			return err
		}
	}
	return nil
}

// MsgInv announces object availability (transactions, blocks).
type MsgInv struct {
	invList
}

// oneInv is an INV together with the backing array of its one entry, so
// an announcement costs one allocation.
type oneInv struct {
	msg MsgInv
	one [1]InvVect
}

// newInv returns a one-entry INV for iv in a single allocation.
func newInv(iv InvVect) *MsgInv {
	m := &oneInv{one: [1]InvVect{iv}}
	m.msg.InvList = m.one[:]
	return &m.msg
}

var _ Message = (*MsgInv)(nil)

// Command implements Message.
func (m *MsgInv) Command() string { return CmdInv }

// MsgGetData requests objects previously announced by INV.
type MsgGetData struct {
	invList
}

var _ Message = (*MsgGetData)(nil)

// Command implements Message.
func (m *MsgGetData) Command() string { return CmdGetData }

// MsgNotFound answers a GETDATA for objects the peer no longer has.
type MsgNotFound struct {
	invList
}

var _ Message = (*MsgNotFound)(nil)

// Command implements Message.
func (m *MsgNotFound) Command() string { return CmdNotFound }

// OutPoint references a specific output of a previous transaction.
type OutPoint struct {
	// Hash of the transaction holding the output.
	Hash chainhash.Hash
	// Index of the output within that transaction.
	Index uint32
}

// TxIn is a transaction input.
type TxIn struct {
	// PreviousOutPoint is the output being spent.
	PreviousOutPoint OutPoint
	// SignatureScript unlocks the previous output.
	SignatureScript []byte
	// Sequence is the input sequence number.
	Sequence uint32
}

// TxOut is a transaction output.
type TxOut struct {
	// Value in satoshi.
	Value int64
	// PkScript locks the output.
	PkScript []byte
}

// maxScriptLen bounds script allocation when decoding hostile input.
const maxScriptLen = 10000

// maxTxInOut bounds per-transaction input/output counts when decoding.
const maxTxInOut = 100000

// MsgTx is a Bitcoin transaction in the legacy (pre-segwit) serialization,
// which is sufficient for the relay-delay measurements the paper performs.
type MsgTx struct {
	// Version of the transaction format.
	Version int32
	// TxIn holds the inputs.
	TxIn []TxIn
	// TxOut holds the outputs.
	TxOut []TxOut
	// LockTime is the earliest time/height the tx may be mined.
	LockTime uint32

	// hashed says txid holds TxID's memo. The memo is inline, so taking it
	// never allocates, and a value copy of a hashed transaction (a mined
	// block's transactions, a reconstructed block) carries it. Only Decode
	// resets it, clearing txid too so a recycled value equals a fresh one:
	// a transaction is never mutated once it has been transmitted or
	// hashed. The flag sits in LockTime's padding word, so
	// the memo costs the struct 32 bytes.
	hashed bool
	txid   chainhash.Hash
	// inv is Inv's memo, 8 bytes more. It is a separate allocation that
	// never points into the MsgTx, so a value copy shares it and a
	// Decoder refilling a recycled value cannot change an INV already
	// sent; Decode drops the reference.
	inv *MsgInv
}

var _ Message = (*MsgTx)(nil)

// Command implements Message.
func (m *MsgTx) Command() string { return CmdTx }

// AppendPayload implements Message.
func (m *MsgTx) AppendPayload(b []byte) ([]byte, error) { return m.appendTo(b), nil }

// appendTo appends the serialized transaction; no transaction is
// unencodable, so blocks and hashing use it without an error to drop.
func (m *MsgTx) appendTo(b []byte) []byte {
	b = appendUint32(b, uint32(m.Version))
	b = appendVarInt(b, uint64(len(m.TxIn)))
	for i := range m.TxIn {
		in := &m.TxIn[i]
		b = append(b, in.PreviousOutPoint.Hash[:]...)
		b = appendUint32(b, in.PreviousOutPoint.Index)
		b = appendByteSlice(b, in.SignatureScript)
		b = appendUint32(b, in.Sequence)
	}
	b = appendVarInt(b, uint64(len(m.TxOut)))
	for i := range m.TxOut {
		out := &m.TxOut[i]
		b = appendUint64(b, uint64(out.Value))
		b = appendByteSlice(b, out.PkScript)
	}
	return appendUint32(b, m.LockTime)
}

// Decode implements Message.
func (m *MsgTx) Decode(r *bytes.Reader) error {
	m.hashed, m.txid, m.inv = false, chainhash.Hash{}, nil
	v, err := readUint32(r)
	if err != nil {
		return err
	}
	m.Version = int32(v)
	nIn, err := readVarInt(r)
	if err != nil {
		return err
	}
	if nIn > maxTxInOut {
		return fmt.Errorf("%w: %d tx inputs", ErrTooMany, nIn)
	}
	m.TxIn = make([]TxIn, nIn)
	for i := range m.TxIn {
		in := &m.TxIn[i]
		if err := readFull(r, in.PreviousOutPoint.Hash[:]); err != nil {
			return err
		}
		if in.PreviousOutPoint.Index, err = readUint32(r); err != nil {
			return err
		}
		if in.SignatureScript, err = readByteSlice(r); err != nil {
			return err
		}
		if in.Sequence, err = readUint32(r); err != nil {
			return err
		}
	}
	nOut, err := readVarInt(r)
	if err != nil {
		return err
	}
	if nOut > maxTxInOut {
		return fmt.Errorf("%w: %d tx outputs", ErrTooMany, nOut)
	}
	m.TxOut = make([]TxOut, nOut)
	for i := range m.TxOut {
		out := &m.TxOut[i]
		val, err := readUint64(r)
		if err != nil {
			return err
		}
		out.Value = int64(val)
		if out.PkScript, err = readByteSlice(r); err != nil {
			return err
		}
	}
	m.LockTime, err = readUint32(r)
	return err
}

// TxHash returns the double-SHA256 of the serialized transaction, its
// canonical identifier, computed from the bytes on every call.
// Transactions up to the scratch size hash without allocating; larger
// ones grow onto the heap.
func (m *MsgTx) TxHash() chainhash.Hash {
	var scratch [512]byte
	return chainhash.DoubleSHA256(m.appendTo(scratch[:0]))
}

// TxID returns TxHash, computed on the first call and read from the memo
// after, so a transaction shared by every node of a network is hashed
// once. It allocates no more than TxHash does.
func (m *MsgTx) TxID() chainhash.Hash {
	if !m.hashed {
		m.txid = m.TxHash()
		m.hashed = true
	}
	return m.txid
}

// Inv returns the one-entry INV announcing the transaction, built on the
// first call and shared after, so a transaction that every node of a
// network relays costs one INV. Like every transmitted message it is
// never mutated.
func (m *MsgTx) Inv() *MsgInv {
	if m.inv == nil {
		m.inv = newInv(InvVect{Type: InvTypeTx, Hash: m.TxID()})
	}
	return m.inv
}

// SerializeSize returns the number of bytes the transaction occupies on
// the wire.
func (m *MsgTx) SerializeSize() int {
	n := 4 + 4 // version + locktime
	n += varIntSerializeSize(uint64(len(m.TxIn)))
	for i := range m.TxIn {
		n += 32 + 4 + 4 // prevout hash + index + sequence
		n += varIntSerializeSize(uint64(len(m.TxIn[i].SignatureScript)))
		n += len(m.TxIn[i].SignatureScript)
	}
	n += varIntSerializeSize(uint64(len(m.TxOut)))
	for i := range m.TxOut {
		n += 8
		n += varIntSerializeSize(uint64(len(m.TxOut[i].PkScript)))
		n += len(m.TxOut[i].PkScript)
	}
	return n
}

func appendByteSlice(b, p []byte) []byte {
	return append(appendVarInt(b, uint64(len(p))), p...)
}

func readByteSlice(r *bytes.Reader) ([]byte, error) {
	n, err := readVarInt(r)
	if err != nil {
		return nil, err
	}
	if n > maxScriptLen {
		return nil, fmt.Errorf("%w: %d-byte script", ErrTooMany, n)
	}
	buf := make([]byte, n)
	if err := readFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// BlockHeader is the fixed 80-byte block header.
type BlockHeader struct {
	// Version of the block format.
	Version int32
	// PrevBlock is the hash of the preceding block header.
	PrevBlock chainhash.Hash
	// MerkleRoot commits to the block's transactions.
	MerkleRoot chainhash.Hash
	// Timestamp of block creation (seconds precision on the wire).
	Timestamp uint32
	// Bits is the compact difficulty target.
	Bits uint32
	// Nonce is the proof-of-work nonce.
	Nonce uint32
}

// appendTo appends the 80-byte header serialization.
func (h *BlockHeader) appendTo(b []byte) []byte {
	b = appendUint32(b, uint32(h.Version))
	b = append(b, h.PrevBlock[:]...)
	b = append(b, h.MerkleRoot[:]...)
	b = appendUint32(b, h.Timestamp)
	b = appendUint32(b, h.Bits)
	return appendUint32(b, h.Nonce)
}

// decode reads the 80-byte header serialization.
func (h *BlockHeader) decode(r *bytes.Reader) error {
	var buf [80]byte
	if err := readFull(r, buf[:]); err != nil {
		return err
	}
	h.Version = int32(getUint32(buf[0:4]))
	copy(h.PrevBlock[:], buf[4:36])
	copy(h.MerkleRoot[:], buf[36:68])
	h.Timestamp = getUint32(buf[68:72])
	h.Bits = getUint32(buf[72:76])
	h.Nonce = getUint32(buf[76:80])
	return nil
}

// BlockHash returns the double-SHA256 of the serialized header, the
// block's canonical identifier.
func (h *BlockHeader) BlockHash() chainhash.Hash {
	var scratch [80]byte
	return chainhash.DoubleSHA256(h.appendTo(scratch[:0]))
}

// maxTxPerBlock bounds block decoding allocation.
const maxTxPerBlock = 1 << 17

// MsgBlock is a full block: header plus transactions.
type MsgBlock struct {
	// Header is the block header.
	Header BlockHeader
	// Transactions in the block, coinbase first.
	Transactions []MsgTx

	// inv is Inv's memo, as on MsgTx; Decode drops it.
	inv *MsgInv
}

var _ Message = (*MsgBlock)(nil)

// Command implements Message.
func (m *MsgBlock) Command() string { return CmdBlock }

// AppendPayload implements Message.
func (m *MsgBlock) AppendPayload(b []byte) ([]byte, error) {
	b = m.Header.appendTo(b)
	b = appendVarInt(b, uint64(len(m.Transactions)))
	for i := range m.Transactions {
		b = m.Transactions[i].appendTo(b)
	}
	return b, nil
}

// Decode implements Message.
func (m *MsgBlock) Decode(r *bytes.Reader) error {
	m.inv = nil
	if err := m.Header.decode(r); err != nil {
		return err
	}
	count, err := readVarInt(r)
	if err != nil {
		return err
	}
	if count > maxTxPerBlock {
		return fmt.Errorf("%w: %d transactions in block", ErrTooMany, count)
	}
	m.Transactions = make([]MsgTx, count)
	for i := range m.Transactions {
		if err := m.Transactions[i].Decode(r); err != nil {
			return err
		}
	}
	return nil
}

// BlockHash returns the block's canonical identifier.
func (m *MsgBlock) BlockHash() chainhash.Hash { return m.Header.BlockHash() }

// Inv returns the one-entry INV announcing the block, built on the first
// call and shared after, like MsgTx.Inv.
func (m *MsgBlock) Inv() *MsgInv {
	if m.inv == nil {
		m.inv = newInv(InvVect{Type: InvTypeBlock, Hash: m.BlockHash()})
	}
	return m.inv
}

// SerializeSize returns the block's on-wire size in bytes.
func (m *MsgBlock) SerializeSize() int {
	n := 80 + varIntSerializeSize(uint64(len(m.Transactions)))
	for i := range m.Transactions {
		n += m.Transactions[i].SerializeSize()
	}
	return n
}

// maxHeadersPerMsg is the HEADERS message cap (matches Bitcoin Core).
const maxHeadersPerMsg = 2000

// MsgHeaders delivers block headers in response to GETHEADERS.
type MsgHeaders struct {
	// Headers delivered, each followed on the wire by a zero tx count.
	Headers []BlockHeader
}

var _ Message = (*MsgHeaders)(nil)

// Command implements Message.
func (m *MsgHeaders) Command() string { return CmdHeaders }

// AppendPayload implements Message.
func (m *MsgHeaders) AppendPayload(b []byte) ([]byte, error) {
	if len(m.Headers) > maxHeadersPerMsg {
		return nil, fmt.Errorf("%w: %d headers (max %d)", ErrTooMany,
			len(m.Headers), maxHeadersPerMsg)
	}
	b = appendVarInt(b, uint64(len(m.Headers)))
	for i := range m.Headers {
		b = m.Headers[i].appendTo(b)
		// Headers on the wire carry a trailing varint tx count of zero.
		b = appendVarInt(b, 0)
	}
	return b, nil
}

// Decode implements Message.
func (m *MsgHeaders) Decode(r *bytes.Reader) error {
	count, err := readVarInt(r)
	if err != nil {
		return err
	}
	if count > maxHeadersPerMsg {
		return fmt.Errorf("%w: %d headers (max %d)", ErrTooMany,
			count, maxHeadersPerMsg)
	}
	m.Headers = make([]BlockHeader, count)
	for i := range m.Headers {
		if err := m.Headers[i].decode(r); err != nil {
			return err
		}
		txCount, err := readVarInt(r)
		if err != nil {
			return err
		}
		if txCount != 0 {
			return fmt.Errorf("wire: headers message with %d transactions", txCount)
		}
	}
	return nil
}

// maxLocatorHashes caps the block locator length.
const maxLocatorHashes = 101

// MsgGetHeaders requests headers after the most recent known block in a
// locator.
type MsgGetHeaders struct {
	// ProtocolVersion of the requester.
	ProtocolVersion uint32
	// BlockLocatorHashes walk back from the tip at exponentially growing
	// gaps, letting the peer find the fork point.
	BlockLocatorHashes []chainhash.Hash
	// HashStop ends the returned range (zero for as-many-as-possible).
	HashStop chainhash.Hash
}

var _ Message = (*MsgGetHeaders)(nil)

// Command implements Message.
func (m *MsgGetHeaders) Command() string { return CmdGetHeaders }

// AppendPayload implements Message.
func (m *MsgGetHeaders) AppendPayload(b []byte) ([]byte, error) {
	if len(m.BlockLocatorHashes) > maxLocatorHashes {
		return nil, fmt.Errorf("%w: %d locator hashes (max %d)", ErrTooMany,
			len(m.BlockLocatorHashes), maxLocatorHashes)
	}
	b = appendUint32(b, m.ProtocolVersion)
	b = appendVarInt(b, uint64(len(m.BlockLocatorHashes)))
	for i := range m.BlockLocatorHashes {
		b = append(b, m.BlockLocatorHashes[i][:]...)
	}
	return append(b, m.HashStop[:]...), nil
}

// Decode implements Message.
func (m *MsgGetHeaders) Decode(r *bytes.Reader) error {
	var err error
	if m.ProtocolVersion, err = readUint32(r); err != nil {
		return err
	}
	count, err := readVarInt(r)
	if err != nil {
		return err
	}
	if count > maxLocatorHashes {
		return fmt.Errorf("%w: %d locator hashes (max %d)", ErrTooMany,
			count, maxLocatorHashes)
	}
	m.BlockLocatorHashes = make([]chainhash.Hash, count)
	for i := range m.BlockLocatorHashes {
		if err := readFull(r, m.BlockLocatorHashes[i][:]); err != nil {
			return err
		}
	}
	return readFull(r, m.HashStop[:])
}
