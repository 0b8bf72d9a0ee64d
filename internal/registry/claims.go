package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"
)

// Claims: a small TTL-stamped JSON file per key under the store's claims/
// subdirectory, created atomically and exclusively — the content is written
// to a temp file and then hard-linked to the claim path, so the link either
// installs a fully-written record or fails with EEXIST. A claim whose
// ExpiresAt has passed may be reaped by the next contender.
//
// No serving path calls this file. It lives on only for the frozen bench
// module's registry.claim_us probe and goes when that module is unfrozen
// (ROADMAP item 7).

// claimsSubdir is the store subdirectory holding one file per claim.
// versionsLocked skips directories, so artifact listing is unaffected.
const claimsSubdir = "claims"

// DefaultClaimTTL is how long a claim outlives its creation before
// contenders may treat the owner as crashed and take over.
const DefaultClaimTTL = 10 * time.Second

// ClaimInfo is one claim file's record.
type ClaimInfo struct {
	// Key is the claimed key.
	Key string `json:"key"`
	// Owner is the claiming replica's ID.
	Owner string `json:"owner"`
	// Addr is the claiming replica's advertised address.
	Addr string `json:"addr"`
	// CreatedAt is when the claim was taken.
	CreatedAt time.Time `json:"createdAt"`
	// ExpiresAt is when contenders may treat the owner as dead.
	ExpiresAt time.Time `json:"expiresAt"`
}

// expired reports whether the claim is past its ExpiresAt stamp.
func (c *ClaimInfo) expired(now time.Time) bool { return now.After(c.ExpiresAt) }

// claimPath is key's claim file relative to the store root, its name
// flattened like a replica record's so a hostile key cannot escape the
// subdirectory.
func claimPath(key string) string {
	return filepath.Join(claimsSubdir, replicaFile(key))
}

// readClaim parses the claim file at path; a missing, half-written or
// foreign file reads as no claim.
func readClaim(path string) *ClaimInfo {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var c ClaimInfo
	if json.Unmarshal(raw, &c) != nil || c.Owner == "" {
		return nil
	}
	return &c
}

// Claim attempts to take the claim on key for owner. ttl (DefaultClaimTTL
// when <= 0) stamps the expiry. The result is one of:
//
//   - acquired=true: the caller holds the claim until ReleaseClaim.
//     takeover=true additionally means an expired claim was reaped on the
//     way in.
//   - acquired=false, holder != nil: another live owner holds the claim.
//   - acquired=false, holder == nil only alongside a non-nil error.
func (s *Store) Claim(key, owner, addr string, ttl time.Duration) (acquired bool, holder *ClaimInfo, takeover bool, err error) {
	if key == "" || owner == "" {
		return false, nil, false, fmt.Errorf("registry: claim needs key and owner")
	}
	if ttl <= 0 {
		ttl = DefaultClaimTTL
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.MkdirAll(filepath.Join(s.dir, claimsSubdir), 0o755); err != nil {
		return false, nil, false, fmt.Errorf("registry: creating claims dir: %w", err)
	}
	now := time.Now()
	c := ClaimInfo{Key: key, Owner: owner, Addr: addr, CreatedAt: now, ExpiresAt: now.Add(ttl)}
	name := claimPath(key)
	path := filepath.Join(s.dir, name)
	// Two link attempts: the first decides claimed-vs-held; a second is
	// allowed only after reaping a provably expired claim (takeover).
	for attempt := 0; ; attempt++ {
		err := s.writeFileLocked(name, os.Link, func(f *os.File) error {
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			return enc.Encode(c)
		})
		if err == nil {
			return true, nil, attempt > 0, nil
		}
		if !errors.Is(err, fs.ErrExist) {
			return false, nil, false, fmt.Errorf("registry: claim: %w", err)
		}
		cur := readClaim(path)
		if cur != nil && !cur.expired(time.Now()) {
			return false, cur, false, nil
		}
		if attempt > 0 {
			// Reaped once already and still losing the link race; treat the
			// new claimant as the holder rather than fighting forever.
			if cur != nil {
				return false, cur, false, nil
			}
			return false, nil, false, fmt.Errorf("registry: claim on %s: persistent link race", key)
		}
		// Expired (or unreadable) claim: reap it and retry the link once. A
		// concurrent reaper removing the same file is fine — the retry
		// settles who actually took over.
		if rmErr := os.Remove(path); rmErr != nil && !os.IsNotExist(rmErr) {
			return false, nil, false, fmt.Errorf("registry: claim takeover: %w", rmErr)
		}
	}
}

// ReleaseClaim removes key's claim if owner still holds it. Releasing an
// absent claim, or one that has since been taken over by another owner, is
// not an error — the release simply no-ops.
func (s *Store) ReleaseClaim(key, owner string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	path := filepath.Join(s.dir, claimPath(key))
	cur := readClaim(path)
	if cur == nil || cur.Owner != owner {
		return nil
	}
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("registry: claim release: %w", err)
	}
	return nil
}
