package wire

import (
	"bytes"
	"crypto/sha256"
	"fmt"

	"repro/internal/chainhash"
)

// MsgSendCmpct negotiates BIP-152 compact block relay with a peer. The
// paper's §IV-C explains how compact-block relay entangles transaction
// relay delay with block reconstruction delay.
type MsgSendCmpct struct {
	// Announce requests that new blocks be announced via CMPCTBLOCK
	// instead of INV when true.
	Announce bool
	// Version of the compact block protocol (1 for non-witness).
	Version uint64
}

var _ Message = (*MsgSendCmpct)(nil)

// Command implements Message.
func (m *MsgSendCmpct) Command() string { return CmdSendCmpct }

// AppendPayload implements Message.
func (m *MsgSendCmpct) AppendPayload(b []byte) ([]byte, error) {
	return appendUint64(append(b, boolByte(m.Announce)), m.Version), nil
}

// Decode implements Message.
func (m *MsgSendCmpct) Decode(r *bytes.Reader) error {
	b, err := readUint8(r)
	if err != nil {
		return err
	}
	m.Announce = b != 0
	m.Version, err = readUint64(r)
	return err
}

// ShortIDSize is the size of a BIP-152 short transaction ID in bytes.
const ShortIDSize = 6

// ShortID is a 6-byte compact transaction identifier.
type ShortID [ShortIDSize]byte

// ComputeShortID derives the short ID of txid for a compact block keyed by
// (blockHash, nonce).
//
// Deviation from BIP-152: the BIP specifies SipHash-2-4 keyed by
// SHA256(header||nonce); the Go standard library does not expose SipHash,
// so we key a single SHA256 over (blockHash, nonce, txid) and truncate.
// The property the measurements rely on — a cheap 6-byte identifier with
// negligible collision probability within one block — is preserved.
func ComputeShortID(blockHash chainhash.Hash, nonce uint64, txid chainhash.Hash) ShortID {
	var buf [32 + 8 + 32]byte
	copy(buf[:32], blockHash[:])
	putUint64(buf[32:40], nonce)
	copy(buf[40:], txid[:])
	sum := sha256.Sum256(buf[:])
	var id ShortID
	copy(id[:], sum[:ShortIDSize])
	return id
}

// PrefilledTx is a transaction included verbatim in a compact block,
// indexed by its position (differentially encoded on the wire).
type PrefilledTx struct {
	// Index is the absolute position of the transaction in the block.
	Index uint16
	// Tx is the included transaction.
	Tx MsgTx
}

// maxShortIDsPerBlock bounds compact-block decoding allocation.
const maxShortIDsPerBlock = maxTxPerBlock

// MsgCmpctBlock is a BIP-152 compact block: the header, a nonce keying the
// short IDs, the short IDs of transactions the receiver should already
// hold in its mempool, and prefilled transactions (always including the
// coinbase).
type MsgCmpctBlock struct {
	// Header of the announced block.
	Header BlockHeader
	// Nonce keys the short ID computation.
	Nonce uint64
	// ShortIDs of the block's non-prefilled transactions, in block order.
	ShortIDs []ShortID
	// PrefilledTxs are transactions sent in full.
	PrefilledTxs []PrefilledTx

	// origin is the block this compact block was built from, when it was
	// built in this process. It is never encoded, and Decode clears it,
	// so a compact block that crossed a socket has none.
	origin *MsgBlock
}

var _ Message = (*MsgCmpctBlock)(nil)

// Command implements Message.
func (m *MsgCmpctBlock) Command() string { return CmdCmpctBlock }

// AppendPayload implements Message.
func (m *MsgCmpctBlock) AppendPayload(b []byte) ([]byte, error) {
	b = m.Header.appendTo(b)
	b = appendUint64(b, m.Nonce)
	b = appendVarInt(b, uint64(len(m.ShortIDs)))
	for i := range m.ShortIDs {
		b = append(b, m.ShortIDs[i][:]...)
	}
	b = appendVarInt(b, uint64(len(m.PrefilledTxs)))
	// Prefilled indexes are differentially encoded: each stored index is
	// the gap since the previous prefilled index minus one.
	prev := -1
	for i := range m.PrefilledTxs {
		p := &m.PrefilledTxs[i]
		diff := int(p.Index) - prev - 1
		if diff < 0 {
			return nil, fmt.Errorf("wire: prefilled tx indexes not strictly increasing at %d", p.Index)
		}
		b = appendVarInt(b, uint64(diff))
		b = p.Tx.appendTo(b)
		prev = int(p.Index)
	}
	return b, nil
}

// Decode implements Message.
func (m *MsgCmpctBlock) Decode(r *bytes.Reader) error {
	m.origin = nil
	if err := m.Header.decode(r); err != nil {
		return err
	}
	var err error
	if m.Nonce, err = readUint64(r); err != nil {
		return err
	}
	nIDs, err := readVarInt(r)
	if err != nil {
		return err
	}
	if nIDs > maxShortIDsPerBlock {
		return fmt.Errorf("%w: %d short IDs", ErrTooMany, nIDs)
	}
	m.ShortIDs = make([]ShortID, nIDs)
	for i := range m.ShortIDs {
		if err := readFull(r, m.ShortIDs[i][:]); err != nil {
			return err
		}
	}
	nPre, err := readVarInt(r)
	if err != nil {
		return err
	}
	if nPre > maxShortIDsPerBlock {
		return fmt.Errorf("%w: %d prefilled transactions", ErrTooMany, nPre)
	}
	m.PrefilledTxs = make([]PrefilledTx, nPre)
	prev := -1
	for i := range m.PrefilledTxs {
		diff, err := readVarInt(r)
		if err != nil {
			return err
		}
		idx := prev + 1 + int(diff)
		if idx > int(^uint16(0)) {
			return fmt.Errorf("wire: prefilled tx index %d overflows", idx)
		}
		m.PrefilledTxs[i].Index = uint16(idx)
		if err := m.PrefilledTxs[i].Tx.Decode(r); err != nil {
			return err
		}
		prev = idx
	}
	return nil
}

// BlockHash returns the announced block's identifier.
func (m *MsgCmpctBlock) BlockHash() chainhash.Hash { return m.Header.BlockHash() }

// SetOrigin records blk as the block m was built from. A block is
// immutable once mined, so a receiver in the same process may keep blk
// itself instead of a copy once it has checked that m resolves to it.
func (m *MsgCmpctBlock) SetOrigin(blk *MsgBlock) { m.origin = blk }

// Origin returns the block m was built from, or nil when m was decoded
// or built without one.
func (m *MsgCmpctBlock) Origin() *MsgBlock { return m.origin }

// TotalTxCount returns the number of transactions the full block holds.
func (m *MsgCmpctBlock) TotalTxCount() int {
	return len(m.ShortIDs) + len(m.PrefilledTxs)
}

// MsgGetBlockTxn requests, by index, the transactions of a compact block
// the receiver could not reconstruct from its mempool.
type MsgGetBlockTxn struct {
	// BlockHash identifies the compact block being completed.
	BlockHash chainhash.Hash
	// Indexes are the absolute positions of the missing transactions,
	// strictly increasing (differentially encoded on the wire).
	Indexes []uint16
}

var _ Message = (*MsgGetBlockTxn)(nil)

// Command implements Message.
func (m *MsgGetBlockTxn) Command() string { return CmdGetBlockTxn }

// AppendPayload implements Message.
func (m *MsgGetBlockTxn) AppendPayload(b []byte) ([]byte, error) {
	b = append(b, m.BlockHash[:]...)
	b = appendVarInt(b, uint64(len(m.Indexes)))
	prev := -1
	for _, idx := range m.Indexes {
		diff := int(idx) - prev - 1
		if diff < 0 {
			return nil, fmt.Errorf("wire: getblocktxn indexes not strictly increasing at %d", idx)
		}
		b = appendVarInt(b, uint64(diff))
		prev = int(idx)
	}
	return b, nil
}

// Decode implements Message.
func (m *MsgGetBlockTxn) Decode(r *bytes.Reader) error {
	if err := readFull(r, m.BlockHash[:]); err != nil {
		return err
	}
	count, err := readVarInt(r)
	if err != nil {
		return err
	}
	if count > maxShortIDsPerBlock {
		return fmt.Errorf("%w: %d requested indexes", ErrTooMany, count)
	}
	m.Indexes = make([]uint16, count)
	prev := -1
	for i := range m.Indexes {
		diff, err := readVarInt(r)
		if err != nil {
			return err
		}
		idx := prev + 1 + int(diff)
		if idx > int(^uint16(0)) {
			return fmt.Errorf("wire: getblocktxn index %d overflows", idx)
		}
		m.Indexes[i] = uint16(idx)
		prev = idx
	}
	return nil
}

// MsgBlockTxn supplies the transactions requested by GETBLOCKTXN.
type MsgBlockTxn struct {
	// BlockHash identifies the compact block being completed.
	BlockHash chainhash.Hash
	// Transactions requested, in index order.
	Transactions []MsgTx
}

var _ Message = (*MsgBlockTxn)(nil)

// Command implements Message.
func (m *MsgBlockTxn) Command() string { return CmdBlockTxn }

// AppendPayload implements Message.
func (m *MsgBlockTxn) AppendPayload(b []byte) ([]byte, error) {
	b = append(b, m.BlockHash[:]...)
	b = appendVarInt(b, uint64(len(m.Transactions)))
	for i := range m.Transactions {
		b = m.Transactions[i].appendTo(b)
	}
	return b, nil
}

// Decode implements Message.
func (m *MsgBlockTxn) Decode(r *bytes.Reader) error {
	if err := readFull(r, m.BlockHash[:]); err != nil {
		return err
	}
	count, err := readVarInt(r)
	if err != nil {
		return err
	}
	if count > maxShortIDsPerBlock {
		return fmt.Errorf("%w: %d transactions", ErrTooMany, count)
	}
	m.Transactions = make([]MsgTx, count)
	for i := range m.Transactions {
		if err := m.Transactions[i].Decode(r); err != nil {
			return err
		}
	}
	return nil
}
