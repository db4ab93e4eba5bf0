// Package crypt provides the cryptographic substrate of the Zerber
// index: per-group keys, posting-element codecs (an authenticated
// AES-GCM codec and a compact 64-bit codec matching the paper's
// Section 6.6 wire-size assumption) and HMAC authentication tokens for
// the index server.
package crypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sync"
)

// KeySize is the byte length of group keys (AES-256).
const KeySize = 32

// GroupKey is a symmetric key shared by the members of one
// collaboration group. Only key holders can decrypt the group's
// posting elements; the index server never sees a key.
//
// A key built by a constructor carries its derived ciphers: they are
// built on first use and shared by every copy of the key. The zero
// GroupKey carries none and derives them per call.
type GroupKey struct {
	k     [KeySize]byte
	state *keyState
}

// keyState is the cipher state derived from one group key, each part
// built at most once. Everything in it is safe for concurrent use, so
// copies of a key may seal and open from any number of goroutines.
type keyState struct {
	elementBlock lazyCipher[cipher.Block] // GCMCodec's AES block: its AEAD and its peeks
	element      lazyCipher[cipher.AEAD]  // GCMCodec, built on elementBlock
	feistel      lazyCipher[cipher.Block] // Compact64Codec
}

// lazyCipher is one derived cipher and the error of deriving it.
type lazyCipher[T any] struct {
	once sync.Once
	c    T
	err  error
}

// get returns the cipher, deriving it on the first call.
func (l *lazyCipher[T]) get(derive func() (T, error)) (T, error) {
	l.once.Do(func() { l.c, l.err = derive() })
	return l.c, l.err
}

// withState returns the key carrying fresh, unbuilt cipher state.
func (gk GroupKey) withState() GroupKey {
	gk.state = new(keyState)
	return gk
}

// NewGroupKey generates a fresh random key from r (nil means
// crypto/rand.Reader).
func NewGroupKey(r io.Reader) (GroupKey, error) {
	if r == nil {
		r = rand.Reader
	}
	var gk GroupKey
	if _, err := io.ReadFull(r, gk.k[:]); err != nil {
		return GroupKey{}, fmt.Errorf("crypt: generating group key: %w", err)
	}
	return gk.withState(), nil
}

// KeyFromPassphrase derives a deterministic key from a passphrase via
// iterated SHA-256 with a domain-separation tag. Intended for tests,
// examples and CLI convenience, not as a hardened KDF.
func KeyFromPassphrase(pass string) GroupKey {
	var gk GroupKey
	sum := sha256.Sum256([]byte("zerberr/group-key/v1|" + pass))
	for i := 0; i < 4096; i++ {
		sum = sha256.Sum256(sum[:])
	}
	gk.k = sum
	return gk.withState()
}

// KeyFromBytes builds a key from exactly KeySize raw bytes.
func KeyFromBytes(b []byte) (GroupKey, error) {
	if len(b) != KeySize {
		return GroupKey{}, errors.New("crypt: group key must be 32 bytes")
	}
	var gk GroupKey
	copy(gk.k[:], b)
	return gk.withState(), nil
}

// redactedKey is all a key ever prints of itself.
const redactedKey = "crypt.GroupKey(redacted)"

// String, GoString, Format and LogValue keep key material and the
// expanded round keys behind it out of every fmt verb and every slog
// handler: the debugging surface is attack surface.
func (GroupKey) String() string { return redactedKey }

// GoString implements fmt.GoStringer.
func (GroupKey) GoString() string { return redactedKey }

// Format implements fmt.Formatter, so the verbs that bypass String
// (%d, %x of the fields) print the same thing.
func (GroupKey) Format(f fmt.State, _ rune) {
	_, _ = io.WriteString(f, redactedKey) // a fmt.State's Write has nowhere to report failure to
}

// LogValue implements slog.LogValuer.
func (GroupKey) LogValue() slog.Value { return slog.StringValue(redactedKey) }

// subkey derives an independent key for the given purpose label, so
// the element codecs never share key material directly.
func (gk GroupKey) subkey(purpose string) [KeySize]byte {
	h := sha256.New()
	h.Write([]byte("zerberr/subkey/v1|"))
	h.Write([]byte(purpose))
	h.Write([]byte{'|'})
	h.Write(gk.k[:])
	var out [KeySize]byte
	copy(out[:], h.Sum(nil))
	return out
}

// block derives the AES-256 block cipher for a purpose label: the one
// place a subkey becomes a key schedule.
func (gk GroupKey) block(purpose string) (cipher.Block, error) {
	sub := gk.subkey(purpose)
	return aes.NewCipher(sub[:])
}

// ciphers returns the key's derived state. A key that carries none
// gets a throwaway one, so it derives its ciphers on every call.
func (gk GroupKey) ciphers() *keyState {
	if gk.state == nil {
		return new(keyState)
	}
	return gk.state
}

// elementBlock returns the AES instance under GCMCodec: the AEAD is
// built on it, and a peek encrypts one counter block with it.
func (gk GroupKey) elementBlock() (cipher.Block, error) {
	return gk.ciphers().elementBlock.get(func() (cipher.Block, error) { return gk.block("element/gcm") })
}

// elementAEAD returns the AES-GCM instance GCMCodec seals and opens
// posting elements with.
func (gk GroupKey) elementAEAD() (cipher.AEAD, error) {
	return gk.ciphers().element.get(func() (cipher.AEAD, error) {
		block, err := gk.elementBlock()
		if err != nil {
			return nil, err
		}
		return cipher.NewGCM(block)
	})
}

// feistelBlock returns the AES instance behind Compact64Codec's round
// function.
func (gk GroupKey) feistelBlock() (cipher.Block, error) {
	return gk.ciphers().feistel.get(func() (cipher.Block, error) { return gk.block("element/feistel") })
}
