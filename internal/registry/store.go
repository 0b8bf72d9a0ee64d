package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Store is a file-backed artifact store: one directory holding versioned
// artifact files (v1.json, v2.json, ...) and an ACTIVE marker naming the
// version a restarting server should load. Writes are atomic
// (write-to-temp + rename), so a crash mid-save never corrupts a served
// artifact, and the directory can be inspected or populated with plain
// files (copying an artifact in as "v7.json" makes it promotable).
type Store struct {
	dir string
	mu  sync.Mutex

	// Replica-listing cache (see Replicas in fleet.go): the raw parsed
	// records from the last directory scan, reused for a short window so
	// peer resolution on the serving miss path does not hit the
	// filesystem once per request. Guarded by mu.
	repRaw     []ReplicaInfo
	repScanned time.Time
	repMtime   time.Time
	repValid   bool
}

// activeMarker is the file naming the active version inside a store dir.
const activeMarker = "ACTIVE"

// DefaultWatchInterval is how often a replica compares the ACTIVE marker with
// the version it serves when the caller does not pick a period.
const DefaultWatchInterval = 2 * time.Second

// OpenStore opens (creating if needed) the artifact store at dir.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("registry: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("registry: creating store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// versionNum parses "v<N>" into N; ok is false for anything else.
func versionNum(v string) (int, bool) {
	if !strings.HasPrefix(v, "v") {
		return 0, false
	}
	n, err := strconv.Atoi(v[1:])
	if err != nil || n < 1 {
		return 0, false
	}
	return n, true
}

// versionsLocked lists the store's version names in ascending order.
func (s *Store) versionsLocked() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("registry: listing store: %w", err)
	}
	nums := make([]int, 0, len(entries))
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		if n, ok := versionNum(strings.TrimSuffix(name, ".json")); ok {
			nums = append(nums, n)
		}
	}
	sort.Ints(nums)
	out := make([]string, len(nums))
	for i, n := range nums {
		out[i] = "v" + strconv.Itoa(n)
	}
	return out, nil
}

// Versions lists the stored version names in ascending order.
func (s *Store) Versions() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.versionsLocked()
}

// Save writes a as the next version and returns its name ("v<N>"). The
// artifact's Version field is set on success. Save does not change the
// active marker; pair it with Activate to promote. The name is created
// exclusively (hard link, like a claim), so a version names one payload even
// when another process saves into the same directory at the same moment: the
// loser of a number moves on to the next one.
func (s *Store) Save(a *Artifact) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	versions, err := s.versionsLocked()
	if err != nil {
		return "", err
	}
	next := 1
	if len(versions) > 0 {
		n, _ := versionNum(versions[len(versions)-1])
		next = n + 1
	}
	for ; ; next++ {
		a.Version = "v" + strconv.Itoa(next)
		err := s.writeFileLocked(a.Version+".json", os.Link, func(f *os.File) error { return a.Write(f) })
		if err == nil {
			return a.Version, nil
		}
		if !errors.Is(err, fs.ErrExist) {
			a.Version = ""
			return "", err
		}
	}
}

// Adopt makes a's payload a stored version and returns that version's name,
// which a.Version is on return: the version a already names when that holds
// the same payload, else any version recording a's hash (so restarting on one
// model file does not pile up copies), else a new one written by Save. The
// scan reads each file's recorded hash without decoding its model.
func (s *Store) Adopt(a *Artifact) (string, error) {
	if a.Hash == "" {
		return s.Save(a)
	}
	if cur, err := s.Load(a.Version); err == nil && cur.Hash == a.Hash {
		return a.Version, nil
	}
	versions, err := s.Versions()
	if err != nil {
		return "", err
	}
	for _, v := range versions {
		var f struct {
			Artifact struct {
				Hash string `json:"hash"`
			} `json:"artifact"`
		}
		data, err := os.ReadFile(filepath.Join(s.dir, v+".json"))
		if err == nil && json.Unmarshal(data, &f) == nil && f.Artifact.Hash == a.Hash {
			a.Version = v
			return v, nil
		}
	}
	return s.Save(a)
}

// writeFileLocked atomically writes the file at name, a path relative to the
// store dir whose directory must exist: filled and synced under a temporary
// name, then installed — by os.Rename, which replaces what is there, or by
// os.Link, which fails with fs.ErrExist instead.
func (s *Store) writeFileLocked(name string, install func(tmp, path string) error, fill func(*os.File) error) error {
	path := filepath.Join(s.dir, name)
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("registry: store write: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := fill(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("registry: store sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("registry: store close: %w", err)
	}
	if err := install(tmp.Name(), path); err != nil {
		return fmt.Errorf("registry: store install: %w", err)
	}
	return nil
}

// Load reads the artifact stored under version. The returned artifact's
// Version is the requested name (authoritative over whatever the file
// recorded, so copied-in files behave predictably).
func (s *Store) Load(version string) (*Artifact, error) {
	if _, ok := versionNum(version); !ok {
		return nil, fmt.Errorf("registry: bad version name %q (want v<N>)", version)
	}
	f, err := os.Open(filepath.Join(s.dir, version+".json"))
	if err != nil {
		return nil, fmt.Errorf("registry: version %s: %w", version, err)
	}
	defer f.Close()
	a, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("registry: version %s: %w", version, err)
	}
	a.Version = version
	return a, nil
}

// List loads every stored artifact's metadata in version order.
func (s *Store) List() ([]*Artifact, error) {
	versions, err := s.Versions()
	if err != nil {
		return nil, err
	}
	out := make([]*Artifact, 0, len(versions))
	for _, v := range versions {
		a, err := s.Load(v)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// Activate marks version as the store's active artifact. The version must
// exist.
func (s *Store) Activate(version string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := versionNum(version); !ok {
		return fmt.Errorf("registry: bad version name %q (want v<N>)", version)
	}
	if _, err := os.Stat(filepath.Join(s.dir, version+".json")); err != nil {
		return fmt.Errorf("registry: cannot activate %s: %w", version, err)
	}
	return s.writeFileLocked(activeMarker, os.Rename, func(f *os.File) error {
		_, err := f.WriteString(version + "\n")
		return err
	})
}

// ActiveVersion returns the version named by the ACTIVE marker, or "" when
// none is set: no marker, or an empty one (a writer that truncates before it
// writes, unlike Activate).
func (s *Store) ActiveVersion() (string, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, activeMarker))
	if os.IsNotExist(err) {
		return "", nil
	}
	if err != nil {
		return "", fmt.Errorf("registry: reading active marker: %w", err)
	}
	v := strings.TrimSpace(string(data))
	if v == "" {
		return "", nil
	}
	if _, ok := versionNum(v); !ok {
		return "", fmt.Errorf("registry: active marker names invalid version %q", v)
	}
	return v, nil
}

// LoadActive loads the active artifact: the ACTIVE marker's version if set,
// otherwise the newest stored version. Returns (nil, nil) on an empty store.
func (s *Store) LoadActive() (*Artifact, error) {
	v, err := s.ActiveVersion()
	if err != nil {
		return nil, err
	}
	if v == "" {
		versions, err := s.Versions()
		if err != nil {
			return nil, err
		}
		if len(versions) == 0 {
			return nil, nil
		}
		v = versions[len(versions)-1]
	}
	return s.Load(v)
}
