package registry

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Fleet membership rides on the artifact store: every replica sharing a
// -model-dir heartbeats a small JSON record into its replicas/ subdirectory
// (one file per replica, atomic write-and-rename like every other store
// write), and any process holding the same store can list the live set.
// That makes the store the fleet's single point of coordination — model
// promotion, cache convergence and now discovery — without a separate
// membership service. Stale records age out by TTL on read; deregistration
// on clean shutdown removes the file immediately.

// replicasSubdir is the store subdirectory holding one registration file
// per replica. versionsLocked skips directories, so artifact listing is
// unaffected.
const replicasSubdir = "replicas"

// DefaultReplicaTTL is how long a registration outlives its last heartbeat
// before Replicas treats it as stale.
const DefaultReplicaTTL = 30 * time.Second

// ReplicaInfo is one replica's registration record.
type ReplicaInfo struct {
	// ID names the replica (roboptd -replica-id; defaults to host:pid).
	ID string `json:"id"`
	// Addr is the replica's advertised listen address ("host:port"),
	// scrapeable for /metricz and /readyz.
	Addr string `json:"addr"`
	// StartedAt is when the replica began serving.
	StartedAt time.Time `json:"startedAt"`
	// LastSeen is the latest heartbeat; Replicas filters on it.
	LastSeen time.Time `json:"lastSeen"`
}

// replicaFile renders the registration filename for an ID, flattening
// separators so an ID like "host:8080/x" cannot escape the subdirectory.
func replicaFile(id string) string {
	clean := strings.Map(func(r rune) rune {
		switch r {
		case '/', '\\', ':', ' ':
			return '_'
		}
		return r
	}, id)
	return clean + ".json"
}

// RegisterReplica writes (or refreshes) a replica's registration record.
// Call it once at startup and then periodically as a heartbeat; each call
// stamps LastSeen.
func (s *Store) RegisterReplica(info ReplicaInfo) error {
	if info.ID == "" {
		return fmt.Errorf("registry: replica registration needs an ID")
	}
	info.LastSeen = time.Now()
	if info.StartedAt.IsZero() {
		info.StartedAt = info.LastSeen
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.MkdirAll(filepath.Join(s.dir, replicasSubdir), 0o755); err != nil {
		return fmt.Errorf("registry: creating replicas dir: %w", err)
	}
	err := s.writeFileLocked(filepath.Join(replicasSubdir, replicaFile(info.ID)), os.Rename, func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(info)
	})
	if err != nil {
		return fmt.Errorf("registry: replica registration: %w", err)
	}
	// A local write must be visible to this handle's next Replicas call
	// even inside the cache window.
	s.repValid = false
	return nil
}

// DeregisterReplica removes a replica's registration record (clean
// shutdown). Removing an already-absent record is not an error.
func (s *Store) DeregisterReplica(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := os.Remove(filepath.Join(s.dir, replicasSubdir, replicaFile(id)))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("registry: replica deregistration: %w", err)
	}
	s.repValid = false
	return nil
}

// replicaMtimeSlack is the filesystem-timestamp granularity guard: an
// unchanged directory mtime is only trusted when the cached scan postdates
// that mtime by at least this much, so a registration racing the scan
// inside one coarse mtime tick forces a rescan instead of going unseen.
const replicaMtimeSlack = 10 * time.Millisecond

// replicasRawLocked returns the parsed registration records. The parsed
// list is cached between calls and revalidated with one stat of the
// replicas directory: every membership change (register, heartbeat rename,
// deregister) bumps the directory mtime, so an unchanged mtime means the
// cached list is current — the serving miss path can call this per request
// without re-reading and re-parsing every record file. Local
// RegisterReplica/DeregisterReplica calls invalidate the cache directly.
func (s *Store) replicasRawLocked() ([]ReplicaInfo, error) {
	now := time.Now()
	dir := filepath.Join(s.dir, replicasSubdir)
	fi, err := os.Stat(dir)
	if os.IsNotExist(err) {
		s.repRaw, s.repMtime = nil, time.Time{}
		s.repValid, s.repScanned = true, now
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("registry: listing replicas: %w", err)
	}
	if s.repValid && !s.repMtime.IsZero() && fi.ModTime().Equal(s.repMtime) &&
		s.repScanned.Sub(s.repMtime) >= replicaMtimeSlack {
		return s.repRaw, nil
	}
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		s.repRaw, s.repMtime = nil, time.Time{}
		s.repValid, s.repScanned = true, now
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("registry: listing replicas: %w", err)
	}
	var raw []ReplicaInfo
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		data, rerr := os.ReadFile(filepath.Join(dir, e.Name()))
		if rerr != nil {
			continue
		}
		var info ReplicaInfo
		// A half-written or foreign file is skipped, not fatal: the fleet
		// view must survive one broken registration.
		if json.Unmarshal(data, &info) != nil || info.ID == "" {
			continue
		}
		raw = append(raw, info)
	}
	s.repRaw, s.repMtime = raw, fi.ModTime()
	s.repValid, s.repScanned = true, now
	return raw, nil
}

// Replicas lists the registered replicas whose last heartbeat is within
// ttl (DefaultReplicaTTL when ttl <= 0), sorted by ID. A store without a
// replicas directory reports an empty fleet. File discovery is cached and
// revalidated with a single directory stat (the serving miss path calls
// this per request); the heartbeat cutoff is applied fresh on every call.
func (s *Store) Replicas(ttl time.Duration) ([]ReplicaInfo, error) {
	if ttl <= 0 {
		ttl = DefaultReplicaTTL
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	raw, err := s.replicasRawLocked()
	if err != nil {
		return nil, err
	}
	cutoff := time.Now().Add(-ttl)
	var out []ReplicaInfo
	for _, info := range raw {
		if info.LastSeen.Before(cutoff) {
			continue
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}
