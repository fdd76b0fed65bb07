// Package chainhash provides the 32-byte double-SHA256 hash type used
// throughout the Bitcoin protocol for block and transaction identifiers,
// along with helpers for hashing and hex rendering.
package chainhash

import (
	"crypto/sha256"
	"encoding/hex"
)

// HashSize is the size in bytes of a Bitcoin hash.
const HashSize = 32

// Hash is a 32-byte array holding a double-SHA256 digest. Bitcoin renders
// hashes in reverse byte order (little-endian display), which String
// honors.
type Hash [HashSize]byte

// String returns the hash as the conventional reversed-hex string.
func (h Hash) String() string {
	var rev [HashSize]byte
	for i, b := range h {
		rev[HashSize-1-i] = b
	}
	return hex.EncodeToString(rev[:])
}

// Prefix returns the 8 bytes String renders first — the most significant
// ones — so hex.EncodeToString(p[:]) == h.String()[:16]. Trace labels
// carry it in place of a rendered string.
func (h Hash) Prefix() [8]byte {
	var p [8]byte
	for i := range p {
		p[i] = h[HashSize-1-i]
	}
	return p
}

// DoubleSHA256 computes SHA256(SHA256(data)) and returns it as a Hash.
func DoubleSHA256(data []byte) Hash {
	first := sha256.Sum256(data)
	return sha256.Sum256(first[:])
}

// Checksum returns the first 4 bytes of the double-SHA256 of data, as used
// by the wire protocol message header.
func Checksum(data []byte) [4]byte {
	h := DoubleSHA256(data)
	var out [4]byte
	copy(out[:], h[:4])
	return out
}
