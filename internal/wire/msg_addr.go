package wire

import (
	"bytes"
	"fmt"
)

// MsgGetAddr requests known addresses from a peer. The paper's crawler
// (Algorithm 1) issues GETADDR repeatedly until the peer's ADDR responses
// stop yielding new addresses, draining its new and tried tables.
type MsgGetAddr struct{}

var _ Message = (*MsgGetAddr)(nil)

// Command implements Message.
func (m *MsgGetAddr) Command() string { return CmdGetAddr }

// AppendPayload implements Message.
func (m *MsgGetAddr) AppendPayload(b []byte) ([]byte, error) { return b, nil }

// Decode implements Message.
func (m *MsgGetAddr) Decode(*bytes.Reader) error { return nil }

// MsgAddr carries up to MaxAddrPerMsg (1000) timestamped network
// addresses. The paper's §IV-B shows these are 85.1% unreachable addresses
// on average, which it identifies as a root cause of connection failures.
type MsgAddr struct {
	// AddrList is the advertised addresses, at most MaxAddrPerMsg.
	AddrList []NetAddress
}

var _ Message = (*MsgAddr)(nil)

// Command implements Message.
func (m *MsgAddr) Command() string { return CmdAddr }

// AppendPayload implements Message.
func (m *MsgAddr) AppendPayload(b []byte) ([]byte, error) {
	if len(m.AddrList) > MaxAddrPerMsg {
		return nil, fmt.Errorf("%w: %d addresses (max %d)", ErrTooMany,
			len(m.AddrList), MaxAddrPerMsg)
	}
	b = appendVarInt(b, uint64(len(m.AddrList)))
	for i := range m.AddrList {
		b = appendNetAddress(b, &m.AddrList[i], true)
	}
	return b, nil
}

// Decode implements Message.
func (m *MsgAddr) Decode(r *bytes.Reader) error {
	count, err := readVarInt(r)
	if err != nil {
		return err
	}
	if count > MaxAddrPerMsg {
		return fmt.Errorf("%w: %d addresses (max %d)", ErrTooMany,
			count, MaxAddrPerMsg)
	}
	// Reuse capacity when a Decoder recycles this message; every element
	// is fully overwritten below. A fresh message still allocates (even
	// for count 0) so fresh and recycled decodes compare equal.
	if m.AddrList != nil && cap(m.AddrList) >= int(count) {
		m.AddrList = m.AddrList[:count]
	} else {
		m.AddrList = make([]NetAddress, count)
	}
	for i := range m.AddrList {
		if err := readNetAddress(r, &m.AddrList[i], true); err != nil {
			return err
		}
	}
	return nil
}
