package server

import (
	"crypto/hmac"
	"crypto/sha256"
	"sync"
	"time"

	"zerberr/internal/crypt"
)

// maxVerifiedTokens bounds the verified-token table: at ≈ 100 bytes an
// entry (key, MAC, map overhead) it holds at most ≈ 1.6 MB.
const maxVerifiedTokens = 1 << 14

// verifiedTokens remembers the MACs that passed a full verification,
// so a login's tokens pay their HMAC once per server instead of once
// per round. Only a MAC the full HMAC accepted is ever stored, so
// forged tokens cannot grow the table. The table knows nothing of
// lifetimes: the caller checks each token's own expiry on every
// request, so an entry never extends a token's life.
type verifiedTokens struct {
	mu   sync.RWMutex
	macs map[crypt.TokenKey][sha256.Size]byte
}

// verify reports whether tok's MAC is authentic under secret. A hit is
// one lookup and one constant-time compare. Anything else — a miss, or
// a MAC that differs from the stored one — is the full HMAC, after the
// same compare (against a zero MAC on a miss), so a forged MAC costs
// the same whether or not its fields are in the table. now is only
// the clock a full table sweeps expired entries against.
func (v *verifiedTokens) verify(secret []byte, tok crypt.Token, now time.Time) bool {
	v.mu.RLock()
	mac, ok := v.macs[tok.Key()]
	v.mu.RUnlock()
	if equal := hmac.Equal(mac[:], tok.MAC); ok && equal {
		return true
	}
	// Lifetime is the caller's check, so expiry is the "now" here.
	if !crypt.VerifyToken(secret, tok, tok.Expiry) {
		return false
	}
	v.add(now, tok)
	return true
}

// add records tokens whose MACs are authentic (a MAC the HMAC accepted
// is sha256.Size bytes long).
func (v *verifiedTokens) add(now time.Time, toks ...crypt.Token) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.macs == nil {
		v.macs = make(map[crypt.TokenKey][sha256.Size]byte)
	}
	for _, tok := range toks {
		if len(v.macs) >= maxVerifiedTokens {
			v.sweepLocked(now)
		}
		v.macs[tok.Key()] = [sha256.Size]byte(tok.MAC)
	}
}

// sweepLocked makes room in a full table: it drops the expired entries
// and, unless that frees a quarter of the table, every entry. Each
// sweep thus buys at least maxVerifiedTokens/4 inserts, so its cost
// per insert is constant. A dropped live entry costs its token one
// more HMAC.
func (v *verifiedTokens) sweepLocked(now time.Time) {
	for k := range v.macs {
		// A token's expiry lies in [k.Expiry, k.Expiry+1s).
		if k.Expiry < now.Unix() {
			delete(v.macs, k)
		}
	}
	if len(v.macs) > maxVerifiedTokens*3/4 {
		clear(v.macs)
	}
}
