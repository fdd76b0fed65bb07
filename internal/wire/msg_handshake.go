package wire

import (
	"bytes"
	"io"
	"time"
)

// MsgVersion is the first message a peer sends when a connection is
// established; the paper's scanner (Algorithm 2) probes unreachable nodes
// with exactly this "VER" message and classifies them as responsive by the
// way they close the connection.
type MsgVersion struct {
	// ProtocolVersion the sender speaks.
	ProtocolVersion uint32
	// Services advertised by the sender.
	Services ServiceFlag
	// Timestamp at the sender (seconds precision on the wire).
	Timestamp time.Time
	// AddrYou is the receiver's address as seen by the sender.
	AddrYou NetAddress
	// AddrMe is the sender's own address.
	AddrMe NetAddress
	// Nonce detects self-connections.
	Nonce uint64
	// UserAgent identifies the software.
	UserAgent string
	// StartHeight is the sender's chain tip height.
	StartHeight int32
	// Relay requests transaction relay (BIP-37).
	Relay bool
}

var _ Message = (*MsgVersion)(nil)

// Command implements Message.
func (m *MsgVersion) Command() string { return CmdVersion }

// AppendPayload implements Message.
func (m *MsgVersion) AppendPayload(b []byte) ([]byte, error) {
	b = appendUint32(b, m.ProtocolVersion)
	b = appendUint64(b, uint64(m.Services))
	b = appendUint64(b, uint64(m.Timestamp.Unix()))
	b = appendNetAddress(b, &m.AddrYou, false)
	b = appendNetAddress(b, &m.AddrMe, false)
	b = appendUint64(b, m.Nonce)
	b = appendVarString(b, m.UserAgent)
	b = appendUint32(b, uint32(m.StartHeight))
	return append(b, boolByte(m.Relay)), nil
}

// Decode implements Message.
func (m *MsgVersion) Decode(r *bytes.Reader) error {
	var err error
	if m.ProtocolVersion, err = readUint32(r); err != nil {
		return err
	}
	svc, err := readUint64(r)
	if err != nil {
		return err
	}
	m.Services = ServiceFlag(svc)
	ts, err := readUint64(r)
	if err != nil {
		return err
	}
	m.Timestamp = time.Unix(int64(ts), 0).UTC()
	if err := readNetAddress(r, &m.AddrYou, false); err != nil {
		return err
	}
	if err := readNetAddress(r, &m.AddrMe, false); err != nil {
		return err
	}
	if m.Nonce, err = readUint64(r); err != nil {
		return err
	}
	if m.UserAgent, err = readVarString(r); err != nil {
		return err
	}
	h, err := readUint32(r)
	if err != nil {
		return err
	}
	m.StartHeight = int32(h)
	relay, err := readUint8(r)
	if err != nil {
		// The relay flag is optional for old protocol versions; absence
		// means relay.
		if err == io.EOF {
			m.Relay = true
			return nil
		}
		return err
	}
	m.Relay = relay != 0
	return nil
}

// MsgVerAck acknowledges a VERSION message and completes the handshake.
type MsgVerAck struct{}

var _ Message = (*MsgVerAck)(nil)

// Command implements Message.
func (m *MsgVerAck) Command() string { return CmdVerAck }

// AppendPayload implements Message.
func (m *MsgVerAck) AppendPayload(b []byte) ([]byte, error) { return b, nil }

// Decode implements Message.
func (m *MsgVerAck) Decode(*bytes.Reader) error { return nil }

// MsgPing is a keepalive probe carrying a nonce the peer echoes in PONG.
type MsgPing struct {
	// Nonce correlates the eventual PONG.
	Nonce uint64
}

var _ Message = (*MsgPing)(nil)

// Command implements Message.
func (m *MsgPing) Command() string { return CmdPing }

// AppendPayload implements Message.
func (m *MsgPing) AppendPayload(b []byte) ([]byte, error) { return appendUint64(b, m.Nonce), nil }

// Decode implements Message.
func (m *MsgPing) Decode(r *bytes.Reader) error {
	var err error
	m.Nonce, err = readUint64(r)
	return err
}

// MsgPong answers a PING, echoing its nonce.
type MsgPong struct {
	// Nonce from the PING being answered.
	Nonce uint64
}

var _ Message = (*MsgPong)(nil)

// Command implements Message.
func (m *MsgPong) Command() string { return CmdPong }

// AppendPayload implements Message.
func (m *MsgPong) AppendPayload(b []byte) ([]byte, error) { return appendUint64(b, m.Nonce), nil }

// Decode implements Message.
func (m *MsgPong) Decode(r *bytes.Reader) error {
	var err error
	m.Nonce, err = readUint64(r)
	return err
}

// MsgReject reports a rejected message back to its sender.
type MsgReject struct {
	// Cmd is the command of the rejected message.
	Cmd string
	// Code is the machine-readable rejection code.
	Code uint8
	// Reason is the human-readable rejection reason.
	Reason string
}

var _ Message = (*MsgReject)(nil)

// Command implements Message.
func (m *MsgReject) Command() string { return CmdReject }

// AppendPayload implements Message.
func (m *MsgReject) AppendPayload(b []byte) ([]byte, error) {
	b = appendVarString(b, m.Cmd)
	b = append(b, m.Code)
	return appendVarString(b, m.Reason), nil
}

// Decode implements Message.
func (m *MsgReject) Decode(r *bytes.Reader) error {
	var err error
	if m.Cmd, err = readVarString(r); err != nil {
		return err
	}
	if m.Code, err = readUint8(r); err != nil {
		return err
	}
	m.Reason, err = readVarString(r)
	return err
}
