// Package wire implements the Bitcoin P2P wire protocol: message framing
// with the 24-byte header (network magic, command, payload length,
// double-SHA256 checksum), the variable-length integer and string
// primitives, network addresses with timestamps, and the protocol messages
// the paper's measurement apparatus depends on (VERSION/VERACK handshake,
// ADDR/GETADDR address gossip, INV/GETDATA/TX/BLOCK data relay, the
// BIP-152 compact-block family, and PING/PONG keepalives).
//
// Encoding follows the Bitcoin protocol documentation; integers are
// little-endian unless noted. Every message round-trips through
// AppendPayload/Decode, and ReadMessage/WriteMessage frame messages over
// any io.Reader/io.Writer, which lets the same implementation serve both
// the real-TCP transport and in-memory tests.
package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
)

// BitcoinNet identifies which Bitcoin network a message belongs to via the
// 4-byte magic prefix of the message header.
type BitcoinNet uint32

// Network magic values.
const (
	// MainNet is the main Bitcoin network magic.
	MainNet BitcoinNet = 0xd9b4bef9
	// TestNet3 is the test network (version 3) magic.
	TestNet3 BitcoinNet = 0x0709110b
	// SimNet is the magic used by this repository's simulated networks so
	// stray mainnet traffic can never be confused with test traffic.
	SimNet BitcoinNet = 0x12141c16
)

// String returns a human-readable network name.
func (n BitcoinNet) String() string {
	switch n {
	case MainNet:
		return "mainnet"
	case TestNet3:
		return "testnet3"
	case SimNet:
		return "simnet"
	default:
		return fmt.Sprintf("BitcoinNet(%#x)", uint32(n))
	}
}

// Protocol constants.
const (
	// ProtocolVersion is the protocol version this implementation speaks,
	// matching Bitcoin Core v0.20.1 as analyzed by the paper.
	ProtocolVersion uint32 = 70015

	// MaxMessagePayload is the largest permitted payload (4 MB, matching
	// Bitcoin Core's MAX_PROTOCOL_MESSAGE_LENGTH).
	MaxMessagePayload = 4 * 1024 * 1024

	// CommandSize is the fixed size of the command field in the header.
	CommandSize = 12

	// headerSize is magic(4) + command(12) + length(4) + checksum(4).
	headerSize = 24

	// MaxAddrPerMsg is the maximum number of addresses in one ADDR
	// message, the 1000-address cap the paper's crawler exploits.
	MaxAddrPerMsg = 1000

	// MaxInvPerMsg is the maximum number of inventory vectors per INV.
	MaxInvPerMsg = 50000

	// DefaultPort is the well-known Bitcoin port; the paper reports 95.78%
	// of reachable nodes using it.
	DefaultPort = 8333
)

// Message command strings.
const (
	CmdVersion     = "version"
	CmdVerAck      = "verack"
	CmdAddr        = "addr"
	CmdGetAddr     = "getaddr"
	CmdInv         = "inv"
	CmdGetData     = "getdata"
	CmdTx          = "tx"
	CmdBlock       = "block"
	CmdHeaders     = "headers"
	CmdGetHeaders  = "getheaders"
	CmdPing        = "ping"
	CmdPong        = "pong"
	CmdSendCmpct   = "sendcmpct"
	CmdCmpctBlock  = "cmpctblock"
	CmdGetBlockTxn = "getblocktxn"
	CmdBlockTxn    = "blocktxn"
	CmdReject      = "reject"
	CmdNotFound    = "notfound"
)

// Message is the interface implemented by every wire protocol message.
type Message interface {
	// Command returns the protocol command string for the message.
	Command() string
	// AppendPayload appends the message payload to b and returns the
	// extended slice. It fails only when the message itself is invalid
	// (a count above its per-message limit, unordered indexes).
	AppendPayload(b []byte) ([]byte, error)
	// Decode reads the message payload from r, copying out every byte it
	// keeps.
	Decode(r *bytes.Reader) error
}

// Error sentinels for framing failures; use errors.Is to test.
var (
	// ErrBadMagic indicates a header with an unexpected network magic.
	ErrBadMagic = errors.New("wire: bad network magic")
	// ErrBadChecksum indicates a payload whose checksum does not match
	// the header.
	ErrBadChecksum = errors.New("wire: bad payload checksum")
	// ErrPayloadTooLarge indicates a header declaring a payload beyond
	// MaxMessagePayload.
	ErrPayloadTooLarge = errors.New("wire: payload exceeds maximum")
	// ErrUnknownCommand indicates an unrecognized command string.
	ErrUnknownCommand = errors.New("wire: unknown command")
	// ErrTooMany indicates a count field exceeding a per-message limit.
	ErrTooMany = errors.New("wire: count exceeds message limit")
)

// makeEmptyMessage returns a zero message value for a command string.
func makeEmptyMessage(command string) (Message, error) {
	switch command {
	case CmdVersion:
		return &MsgVersion{}, nil
	case CmdVerAck:
		return &MsgVerAck{}, nil
	case CmdAddr:
		return &MsgAddr{}, nil
	case CmdGetAddr:
		return &MsgGetAddr{}, nil
	case CmdInv:
		return &MsgInv{}, nil
	case CmdGetData:
		return &MsgGetData{}, nil
	case CmdNotFound:
		return &MsgNotFound{}, nil
	case CmdTx:
		return &MsgTx{}, nil
	case CmdBlock:
		return &MsgBlock{}, nil
	case CmdHeaders:
		return &MsgHeaders{}, nil
	case CmdGetHeaders:
		return &MsgGetHeaders{}, nil
	case CmdPing:
		return &MsgPing{}, nil
	case CmdPong:
		return &MsgPong{}, nil
	case CmdSendCmpct:
		return &MsgSendCmpct{}, nil
	case CmdCmpctBlock:
		return &MsgCmpctBlock{}, nil
	case CmdGetBlockTxn:
		return &MsgGetBlockTxn{}, nil
	case CmdBlockTxn:
		return &MsgBlockTxn{}, nil
	case CmdReject:
		return &MsgReject{}, nil
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownCommand, command)
	}
}

// messageHeader is the fixed 24-byte frame preceding every payload.
type messageHeader struct {
	magic    BitcoinNet
	command  string
	length   uint32
	checksum [4]byte
}

// internCommand returns the canonical constant for a known command name so
// header parsing does not allocate a string per message. Unknown commands
// (the rare path; they fail makeEmptyMessage anyway) fall back to a fresh
// allocation. Comparing a []byte converted to string against constants is
// allocation-free in Go.
func internCommand(cmd []byte) string {
	switch string(cmd) {
	case CmdVersion:
		return CmdVersion
	case CmdVerAck:
		return CmdVerAck
	case CmdAddr:
		return CmdAddr
	case CmdGetAddr:
		return CmdGetAddr
	case CmdInv:
		return CmdInv
	case CmdGetData:
		return CmdGetData
	case CmdTx:
		return CmdTx
	case CmdBlock:
		return CmdBlock
	case CmdHeaders:
		return CmdHeaders
	case CmdGetHeaders:
		return CmdGetHeaders
	case CmdPing:
		return CmdPing
	case CmdPong:
		return CmdPong
	case CmdSendCmpct:
		return CmdSendCmpct
	case CmdCmpctBlock:
		return CmdCmpctBlock
	case CmdGetBlockTxn:
		return CmdGetBlockTxn
	case CmdBlockTxn:
		return CmdBlockTxn
	case CmdReject:
		return CmdReject
	case CmdNotFound:
		return CmdNotFound
	default:
		return string(cmd)
	}
}

// readMessageHeader parses the 24-byte header using caller-provided
// scratch; a Decoder passes its own field so the buffer does not escape to
// the heap on every message.
func readMessageHeader(r io.Reader, buf *[headerSize]byte) (messageHeader, error) {
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return messageHeader{}, err
	}
	h := messageHeader{
		magic:  BitcoinNet(getUint32(buf[0:4])),
		length: getUint32(buf[16:20]),
	}
	// Command is NUL-padded to 12 bytes.
	cmd := buf[4 : 4+CommandSize]
	if i := bytes.IndexByte(cmd, 0); i >= 0 {
		cmd = cmd[:i]
	}
	h.command = internCommand(cmd)
	copy(h.checksum[:], buf[20:24])
	return h, nil
}

// ReadMessage reads one framed message for network net from r. It verifies
// the magic and checksum and decodes the payload into the appropriate
// message type. Unknown commands return ErrUnknownCommand (wrapped), with
// the payload consumed, so callers may skip them and continue.
//
// The returned message is freshly allocated and caller-owned. Internally a
// pooled Decoder supplies the payload scratch; hold a Decoder directly for
// the full zero-allocation path (with its message-reuse caveat).
func ReadMessage(r io.Reader, net BitcoinNet) (Message, error) {
	d := GetDecoder()
	msg, err := d.readMessage(r, net, false)
	d.Release()
	return msg, err
}
