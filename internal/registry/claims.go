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

// Fleet-level singleflight rides on the artifact store the same way replica
// discovery does: before a cold enumeration, a replica claims the plan's
// cache key by creating a small TTL-stamped JSON file under the store's
// claims/ subdirectory. Creation is atomic and exclusive — the content is
// written to a temp file and then hard-linked to the claim path, so the
// link either installs a fully-written record or fails with EEXIST; there
// is no window where a peer can observe a half-written claim. Exactly one
// replica per fingerprint wins the link and enumerates; the others poll the
// winner's peercache endpoint. A claim from a crashed replica ages out by
// its ExpiresAt stamp, at which point any contender may remove it and take
// over. Clean completion releases the claim immediately.

// claimsSubdir is the store subdirectory holding one file per in-flight
// claim. versionsLocked skips directories, so artifact listing is
// unaffected.
const claimsSubdir = "claims"

// DefaultClaimTTL is how long a claim outlives its creation before
// contenders may treat the owner as crashed and take over. It bounds the
// worst-case wait behind a dead claimant, so it should comfortably exceed
// one enumeration but stay small against the serving deadline.
const DefaultClaimTTL = 10 * time.Second

// ClaimInfo is one claim file's record.
type ClaimInfo struct {
	// Key is the claimed cache key (fingerprint + model version + band).
	Key string `json:"key"`
	// Owner is the claiming replica's ID.
	Owner string `json:"owner"`
	// Addr is the claiming replica's advertised address; contenders poll
	// its /peercache endpoint for the enumeration result.
	Addr string `json:"addr"`
	// CreatedAt is when the claim was taken.
	CreatedAt time.Time `json:"createdAt"`
	// ExpiresAt is when contenders may treat the owner as dead.
	ExpiresAt time.Time `json:"expiresAt"`
}

// Expired reports whether the claim is past its ExpiresAt stamp.
func (c *ClaimInfo) Expired(now time.Time) bool { return now.After(c.ExpiresAt) }

// ClaimFile renders the on-disk filename for a claim key, flattening
// separators so a hostile key cannot escape the subdirectory. Exported so
// tooling (e2e smoke) can locate a specific claim.
func ClaimFile(key string) string { return replicaFile(key) }

// claimPath is the absolute path of key's claim file.
func (s *Store) claimPath(key string) string {
	return filepath.Join(s.dir, claimsSubdir, ClaimFile(key))
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

// Claim attempts to take the fleet-singleflight claim on key for owner.
// ttl (DefaultClaimTTL when <= 0) stamps the expiry. The result is one of:
//
//   - acquired=true: the caller holds the claim and must enumerate, then
//     ReleaseClaim. takeover=true additionally means an expired claim from
//     a crashed replica was reaped on the way in.
//   - acquired=false, holder != nil: another live replica holds the claim;
//     poll holder.Addr for the result.
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
	name, path := filepath.Join(claimsSubdir, ClaimFile(key)), s.claimPath(key)
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
		if cur != nil && !cur.Expired(time.Now()) {
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
		// Expired (or unreadable) claim from a crashed replica: reap it and
		// retry the link once. A concurrent reaper removing the same file is
		// fine — the retry settles who actually took over.
		if rmErr := os.Remove(path); rmErr != nil && !os.IsNotExist(rmErr) {
			return false, nil, false, fmt.Errorf("registry: claim takeover: %w", rmErr)
		}
	}
}

// LoadClaim returns key's current claim record, or nil when unclaimed.
func (s *Store) LoadClaim(key string) (*ClaimInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return readClaim(s.claimPath(key)), nil
}

// ReleaseClaim removes key's claim if owner still holds it. Releasing an
// absent claim, or one that has since been taken over by another owner, is
// not an error — the release simply no-ops.
func (s *Store) ReleaseClaim(key, owner string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	path := s.claimPath(key)
	cur := readClaim(path)
	if cur == nil || cur.Owner != owner {
		return nil
	}
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("registry: claim release: %w", err)
	}
	return nil
}
