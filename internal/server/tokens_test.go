package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"zerberr/internal/crypt"
)

// raceEnabled is set by race_test.go when the race detector, whose
// instrumentation allocates, is compiled in.
var raceEnabled bool

// tokenServer is a server whose user "u" belongs to groups 0–2, with
// one element in list 1, and the tokens of one login.
func tokenServer(t *testing.T) (*Server, []crypt.Token) {
	t.Helper()
	s := New(secret, time.Minute)
	s.RegisterUser("u", 0, 1, 2)
	s.RegisterUser("v", 0)
	toks := mustLogin(t, s, "u")
	if err := insertOne(context.Background(), s, toks[0], 1, el(0.5, 0, "x")); err != nil {
		t.Fatal(err)
	}
	return s, toks
}

// A forged MAC is rejected as ErrAuth, not served as a hit and not
// reported as expired, when its fields are in the table.
func TestTokenCacheForgedMACWithCachedFields(t *testing.T) {
	s, toks := tokenServer(t)
	if _, err := queryOne(context.Background(), s, toks, 1, 0, 10); err != nil {
		t.Fatal(err)
	}
	forged := toks[1]
	forged.MAC = append([]byte(nil), forged.MAC...)
	forged.MAC[7] ^= 1
	for _, bad := range [][]byte{forged.MAC, nil, forged.MAC[:31], make([]byte, 32)} {
		f := toks[1]
		f.MAC = bad
		_, err := queryOne(context.Background(), s, []crypt.Token{toks[0], f}, 1, 0, 10)
		if !errors.Is(err, ErrAuth) || errors.Is(err, ErrTokenExpired) {
			t.Fatalf("forged MAC %x: err = %v, want ErrAuth", bad, err)
		}
	}
	// The forgeries neither replaced nor removed the authentic entry.
	if _, err := queryOne(context.Background(), s, toks, 1, 0, 10); err != nil {
		t.Fatalf("authentic tokens after forgeries: %v", err)
	}
}

// A cached token presented after its expiry is ErrTokenExpired: the
// table holds expiry in whole seconds, the check reads the token's own
// nanoseconds.
func TestTokenCacheExpiredWhenCached(t *testing.T) {
	s := New(secret, time.Minute)
	s.RegisterUser("u", 0)
	base := time.Date(2026, 6, 10, 12, 0, 0, 500_000_000, time.UTC)
	s.SetClock(func() time.Time { return base })
	toks := mustLogin(t, s, "u")
	if err := insertOne(context.Background(), s, toks[0], 1, el(0.5, 0, "x")); err != nil {
		t.Fatal(err)
	}
	if _, err := queryOne(context.Background(), s, toks, 1, 0, 10); err != nil {
		t.Fatal(err)
	}
	expiry := toks[0].Expiry
	s.SetClock(func() time.Time { return expiry })
	if _, err := queryOne(context.Background(), s, toks, 1, 0, 10); err != nil {
		t.Fatalf("at its expiry the token is still valid: %v", err)
	}
	// Within the expiry's second, so the table's entry still matches.
	s.SetClock(func() time.Time { return expiry.Add(time.Nanosecond) })
	if _, err := queryOne(context.Background(), s, toks, 1, 0, 10); !errors.Is(err, ErrTokenExpired) {
		t.Fatalf("one nanosecond past expiry: err = %v, want ErrTokenExpired", err)
	}
	if err := insertOne(context.Background(), s, toks[0], 1, el(0.6, 0, "y")); !errors.Is(err, ErrTokenExpired) {
		t.Fatalf("insert past expiry: err = %v, want ErrTokenExpired", err)
	}
}

// A cached MAC presented with other fields — group, user, expiry — is
// a forgery: the MAC binds them all.
func TestTokenCacheChangedFields(t *testing.T) {
	s, toks := tokenServer(t)
	mustLogin(t, s, "v") // v's group-0 entry is in the table too
	if _, err := queryOne(context.Background(), s, toks, 1, 0, 10); err != nil {
		t.Fatal(err)
	}
	changes := map[string]func(*crypt.Token){
		"group":          func(tok *crypt.Token) { tok.Group = 2 },
		"unjoined group": func(tok *crypt.Token) { tok.Group = 9 },
		"user":           func(tok *crypt.Token) { tok.User = "v" },
		"expiry":         func(tok *crypt.Token) { tok.Expiry = tok.Expiry.Add(time.Second) },
	}
	for name, change := range changes {
		tok := toks[0]
		change(&tok)
		if _, err := queryOne(context.Background(), s, []crypt.Token{tok}, 1, 0, 10); !errors.Is(err, ErrAuth) || errors.Is(err, ErrTokenExpired) {
			t.Errorf("%s changed: err = %v, want ErrAuth", name, err)
		}
	}
}

// The table never outgrows its bound, however many tokens are issued,
// and it keeps serving the latest login.
func TestTokenCacheBounded(t *testing.T) {
	s := New(secret, time.Minute)
	base := time.Date(2026, 6, 10, 12, 0, 0, 0, time.UTC)
	clock := base
	s.SetClock(func() time.Time { return clock })
	const groups = 8
	users := 3 * maxVerifiedTokens / groups
	for i := range users {
		// Half-way through, the first half's tokens expire.
		if i == users/2 {
			clock = base.Add(2 * time.Minute)
		}
		user := fmt.Sprintf("user%d", i)
		s.RegisterUser(user, 0, 1, 2, 3, 4, 5, 6, 7)
		toks := mustLogin(t, s, user)
		if n := s.tokens.size(); n > maxVerifiedTokens {
			t.Fatalf("after %d logins the table holds %d entries, bound %d", i+1, n, maxVerifiedTokens)
		}
		for _, tok := range toks {
			if !s.tokens.hit(tok) {
				t.Fatalf("login %d: its own token is not in the table", i)
			}
		}
	}
	if _, _, err := s.allowedGroups([]crypt.Token{crypt.IssueToken(secret, "user0", 0, base.Add(time.Minute))}); !errors.Is(err, ErrTokenExpired) {
		t.Fatalf("a token of the first, expired half: err = %v, want ErrTokenExpired", err)
	}
}

// size reports how many verified MACs the table holds.
func (v *verifiedTokens) size() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.macs)
}

// hit reports whether tok's MAC is the one the table holds for its
// fields.
func (v *verifiedTokens) hit(tok crypt.Token) bool {
	v.mu.RLock()
	defer v.mu.RUnlock()
	mac, ok := v.macs[tok.Key()]
	return ok && string(mac[:]) == string(tok.MAC)
}

// Several users query concurrently, log in again and present forged
// tokens meanwhile: under -race, the table's readers and writers are
// ordered, and every answer is the one a fresh server gives.
func TestTokenCacheConcurrentQueryBatch(t *testing.T) {
	s := New(secret, time.Minute)
	const users = 6
	for u := range users {
		s.RegisterUser(fmt.Sprintf("u%d", u), u, u+1, 100)
	}
	writer := mustLogin(t, s, "u0")
	if err := insertOne(context.Background(), s, writer[2], 1, el(0.5, 100, "shared")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for u := range users {
		wg.Add(1)
		go func() {
			defer wg.Done()
			user := fmt.Sprintf("u%d", u)
			for i := range 50 {
				toks, err := s.Login(context.Background(), user)
				if err != nil {
					t.Error(err)
					return
				}
				for range 4 {
					resps, err := s.QueryBatch(context.Background(), toks, []ListQuery{{List: 1, Count: 10}, {List: 1, Offset: 1, Count: 1}})
					if err != nil {
						t.Errorf("%s: %v", user, err)
						return
					}
					if len(resps[0].Elements) != 1 {
						t.Errorf("%s: %d elements, want 1", user, len(resps[0].Elements))
						return
					}
				}
				forged := append([]crypt.Token(nil), toks...)
				forged[i%len(forged)].Group = u + 50
				if _, err := s.QueryBatch(context.Background(), forged, []ListQuery{{List: 1, Count: 10}}); !errors.Is(err, ErrAuth) {
					t.Errorf("%s forged: err = %v, want ErrAuth", user, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// A forged MAC allocates the same whether or not the table holds an
// entry for its fields: both pay the lookup, the compare and the full
// HMAC, which is the structural form of "a miss and a forgery cost the
// same".
func TestTokenCacheForgedCostsTheSame(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := New(secret, time.Minute)
	now := time.Now()
	authentic := crypt.IssueToken(secret, "u", 3, now.Add(time.Minute))
	forged := authentic
	forged.MAC = append([]byte(nil), authentic.MAC...)
	forged.MAC[0] ^= 1
	verifyForged := func() {
		if _, _, err := s.allowedGroups([]crypt.Token{forged}); !errors.Is(err, ErrAuth) {
			t.Fatalf("forged token: err = %v", err)
		}
	}
	uncached := testing.AllocsPerRun(100, verifyForged)
	s.tokens.add(now, authentic)
	cached := testing.AllocsPerRun(100, verifyForged)
	if cached != uncached {
		t.Fatalf("a forged MAC allocates %v times with its fields cached, %v without", cached, uncached)
	}
	// The authentic token is a hit, which allocates nothing beyond the
	// group set.
	hit := testing.AllocsPerRun(100, func() {
		if !s.tokens.verify(secret, authentic, now) {
			t.Fatal("authentic token rejected")
		}
	})
	if hit != 0 {
		t.Fatalf("a hit allocates %v times, want 0", hit)
	}
	if uncached == 0 {
		t.Fatal("the forged path allocated nothing: the HMAC did not run")
	}
}
