package crypt

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"time"

	"zerberr/internal/binfmt"
)

// Token is an authentication token the index server issues to a user:
// an HMAC over (user, group, expiry) under the server's secret. The
// server validates tokens on every query and update (Section 4.1's
// "the user first authenticates herself to an index server").
type Token struct {
	User   string
	Group  int
	Expiry time.Time
	MAC    []byte
}

// tokenMAC computes the HMAC binding the token fields to the secret.
func tokenMAC(secret []byte, user string, group int, expiry time.Time) []byte {
	h := hmac.New(sha256.New, secret)
	h.Write([]byte("zerberr/token/v1|"))
	h.Write([]byte(user))
	var b [16]byte
	binary.BigEndian.PutUint64(b[0:8], uint64(int64(group)))
	binary.BigEndian.PutUint64(b[8:16], uint64(expiry.Unix()))
	h.Write(b[:])
	return h.Sum(nil)
}

// IssueToken creates a token for the user's membership in group,
// valid until expiry.
func IssueToken(secret []byte, user string, group int, expiry time.Time) Token {
	return Token{User: user, Group: group, Expiry: expiry, MAC: tokenMAC(secret, user, group, expiry)}
}

// VerifyToken reports whether the token is authentic under the secret
// and unexpired at time now.
func VerifyToken(secret []byte, tok Token, now time.Time) bool {
	if now.After(tok.Expiry) {
		return false
	}
	want := tokenMAC(secret, tok.User, tok.Group, tok.Expiry)
	return hmac.Equal(want, tok.MAC)
}

// MinTokenBytes is the shortest token record: four one-byte varints (an
// empty user, the group, the expiry, an empty MAC). Decoders bound a
// claimed token count by the bytes that remain divided by it.
const MinTokenBytes = 4

// AppendToken appends the token's binary record — what the protocol's
// request frames carry (internal/server/wire.go):
//
//	token: userLen | user | group (signed varint) |
//	       expiry (signed varint, Unix nanoseconds) | macLen | mac
//
// Lengths are unsigned varints, every varint in its shortest form.
// Nanoseconds since the epoch hold any expiry between the years 1678
// and 2262 exactly; the MAC binds whole seconds, so a token outside
// that range fails verification like any other altered one.
func AppendToken(buf []byte, tok Token) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(tok.User)))
	buf = append(buf, tok.User...)
	buf = binary.AppendVarint(buf, int64(tok.Group))
	buf = binary.AppendVarint(buf, tok.Expiry.UnixNano())
	buf = binary.AppendUvarint(buf, uint64(len(tok.MAC)))
	return append(buf, tok.MAC...)
}

// ReadToken reads a token record. The MAC aliases the reader's input.
// The user name is copied unless it equals user: a reader of a token
// list passes the name of the token before, because one user presents
// all their group tokens together, so the list costs one copy of the
// name. The reader refuses a varint longer than it need be
// (binfmt.Reader), so one token has one record.
func ReadToken(r *binfmt.Reader, user string) Token {
	name := r.Prefixed()
	group := r.Varint()
	expiry := r.Varint()
	mac := r.Prefixed()
	if r.Err() != nil {
		return Token{}
	}
	if string(name) != user {
		user = string(name)
	}
	return Token{User: user, Group: int(group), Expiry: time.Unix(0, expiry), MAC: mac}
}
