package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net/netip"
	"time"
)

// Little-endian helpers. Payloads have one codec path: encoding appends
// to a byte slice (the Encoder's frame, or a stack scratch when hashing)
// and so cannot fail; decoding reads from the *bytes.Reader a Decoder
// wraps around its payload scratch. Both sides are concrete types, so the
// fixed-size arrays used below stay on the stack.

func putUint32(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }
func putUint64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }
func getUint16(b []byte) uint16    { return binary.LittleEndian.Uint16(b) }
func getUint32(b []byte) uint32    { return binary.LittleEndian.Uint32(b) }
func getUint64(b []byte) uint64    { return binary.LittleEndian.Uint64(b) }

func appendUint16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func appendUint32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendUint64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// readFull copies exactly len(p) bytes from r with io.ReadFull's error
// contract: io.EOF if nothing was left, io.ErrUnexpectedEOF on a partial
// read.
func readFull(r *bytes.Reader, p []byte) error {
	n, _ := r.Read(p)
	if n < len(p) {
		if n == 0 {
			return io.EOF
		}
		return io.ErrUnexpectedEOF
	}
	return nil
}

func readUint8(r *bytes.Reader) (uint8, error) { return r.ReadByte() }

func readUint16(r *bytes.Reader) (uint16, error) {
	var b [2]byte
	if err := readFull(r, b[:]); err != nil {
		return 0, err
	}
	return getUint16(b[:]), nil
}

func readUint32(r *bytes.Reader) (uint32, error) {
	var b [4]byte
	if err := readFull(r, b[:]); err != nil {
		return 0, err
	}
	return getUint32(b[:]), nil
}

func readUint64(r *bytes.Reader) (uint64, error) {
	var b [8]byte
	if err := readFull(r, b[:]); err != nil {
		return 0, err
	}
	return getUint64(b[:]), nil
}

// appendVarInt appends a Bitcoin variable-length integer: values below
// 0xfd encode as one byte; larger values use a 0xfd/0xfe/0xff
// discriminator followed by 2/4/8 little-endian bytes.
func appendVarInt(b []byte, v uint64) []byte {
	switch {
	case v < 0xfd:
		return append(b, uint8(v))
	case v <= 0xffff:
		return appendUint16(append(b, 0xfd), uint16(v))
	case v <= 0xffffffff:
		return appendUint32(append(b, 0xfe), uint32(v))
	default:
		return appendUint64(append(b, 0xff), v)
	}
}

// readVarInt reads a Bitcoin variable-length integer. Non-canonical
// encodings (a wider form used for a value that fits a narrower one) are
// rejected, matching Bitcoin Core's strict mode.
func readVarInt(r *bytes.Reader) (uint64, error) {
	disc, err := readUint8(r)
	if err != nil {
		return 0, err
	}
	switch disc {
	case 0xfd:
		v, err := readUint16(r)
		if err != nil {
			return 0, err
		}
		if v < 0xfd {
			return 0, fmt.Errorf("wire: non-canonical varint %d as uint16", v)
		}
		return uint64(v), nil
	case 0xfe:
		v, err := readUint32(r)
		if err != nil {
			return 0, err
		}
		if v <= 0xffff {
			return 0, fmt.Errorf("wire: non-canonical varint %d as uint32", v)
		}
		return uint64(v), nil
	case 0xff:
		v, err := readUint64(r)
		if err != nil {
			return 0, err
		}
		if v <= 0xffffffff {
			return 0, fmt.Errorf("wire: non-canonical varint %d as uint64", v)
		}
		return v, nil
	default:
		return uint64(disc), nil
	}
}

// varIntSerializeSize returns the encoded size of v in bytes.
func varIntSerializeSize(v uint64) int {
	switch {
	case v < 0xfd:
		return 1
	case v <= 0xffff:
		return 3
	case v <= 0xffffffff:
		return 5
	default:
		return 9
	}
}

// maxVarStringLen caps variable strings well below the payload limit; the
// longest legitimate string on the wire is a user agent.
const maxVarStringLen = 16 * 1024

// appendVarString appends a length-prefixed string.
func appendVarString(b []byte, s string) []byte {
	return append(appendVarInt(b, uint64(len(s))), s...)
}

// readVarString reads a length-prefixed string, rejecting lengths above
// maxVarStringLen to bound allocation from hostile peers.
func readVarString(r *bytes.Reader) (string, error) {
	n, err := readVarInt(r)
	if err != nil {
		return "", err
	}
	if n > maxVarStringLen {
		return "", fmt.Errorf("wire: var string of %d bytes exceeds limit", n)
	}
	buf := make([]byte, n)
	if err := readFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// ServiceFlag identifies the services a node advertises in VERSION and
// ADDR messages.
type ServiceFlag uint64

// Service flags (subset relevant to the paper).
const (
	// SFNodeNetwork indicates a full node serving the whole chain.
	SFNodeNetwork ServiceFlag = 1 << 0
	// SFNodeWitness indicates segregated-witness support.
	SFNodeWitness ServiceFlag = 1 << 3
	// SFNodeNetworkLimited indicates a pruned node serving recent blocks.
	SFNodeNetworkLimited ServiceFlag = 1 << 10
)

// NetAddress is a network address as carried in ADDR messages: a last-seen
// timestamp, advertised services, a 16-byte IP (IPv4 mapped into IPv6),
// and a big-endian port.
type NetAddress struct {
	// Timestamp is the last-seen time the advertising peer claims. Not
	// present in the VERSION message encoding.
	Timestamp time.Time
	// Services advertised for the address.
	Services ServiceFlag
	// Addr is the IP address and port.
	Addr netip.AddrPort
}

// appendNetAddress encodes na; the timestamp is included iff withTS.
func appendNetAddress(b []byte, na *NetAddress, withTS bool) []byte {
	if withTS {
		b = appendUint32(b, uint32(na.Timestamp.Unix()))
	}
	b = appendUint64(b, uint64(na.Services))
	ip := na.Addr.Addr().As16()
	b = append(b, ip[:]...)
	// Port is big-endian on the wire, unlike everything else.
	port := na.Addr.Port()
	return append(b, byte(port>>8), byte(port))
}

// readNetAddress decodes into na; the timestamp is expected iff withTS.
func readNetAddress(r *bytes.Reader, na *NetAddress, withTS bool) error {
	if withTS {
		ts, err := readUint32(r)
		if err != nil {
			return err
		}
		na.Timestamp = time.Unix(int64(ts), 0).UTC()
	}
	svc, err := readUint64(r)
	if err != nil {
		return err
	}
	na.Services = ServiceFlag(svc)
	var ip [16]byte
	var portBuf [2]byte
	if err := readFull(r, ip[:]); err != nil {
		return err
	}
	if err := readFull(r, portBuf[:]); err != nil {
		return err
	}
	port := uint16(portBuf[0])<<8 | uint16(portBuf[1])
	addr := netip.AddrFrom16(ip)
	if addr.Is4In6() {
		addr = addr.Unmap()
	}
	na.Addr = netip.AddrPortFrom(addr, port)
	return nil
}

// InvType identifies the kind of object an inventory vector refers to.
type InvType uint32

// Inventory vector types.
const (
	// InvTypeError is the error/ignore type.
	InvTypeError InvType = 0
	// InvTypeTx refers to a transaction.
	InvTypeTx InvType = 1
	// InvTypeBlock refers to a full block.
	InvTypeBlock InvType = 2
	// InvTypeCmpctBlock refers to a compact block (BIP-152).
	InvTypeCmpctBlock InvType = 4
)

// String returns a human-readable inventory type name.
func (t InvType) String() string {
	switch t {
	case InvTypeError:
		return "ERROR"
	case InvTypeTx:
		return "MSG_TX"
	case InvTypeBlock:
		return "MSG_BLOCK"
	case InvTypeCmpctBlock:
		return "MSG_CMPCT_BLOCK"
	default:
		return fmt.Sprintf("InvType(%d)", uint32(t))
	}
}
