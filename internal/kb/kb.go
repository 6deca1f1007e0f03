// Package kb is the system knowledge base of Section 3: the archive where
// process descriptions are stored and versioned ("Process descriptions can
// be archived using the system knowledge base"). Plans are stored in their
// PDL text form, keyed by name, with every revision kept.
package kb

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/pdl"
	"repro/internal/workflow"
)

// Entry is one archived process description revision.
type Entry struct {
	Name    string
	Version int
	PDL     string
	Creator string
	Comment string
}

// Archive stores process descriptions. Safe for concurrent use.
type Archive struct {
	mu      sync.Mutex
	entries map[string][]Entry
}

// NewArchive returns an empty archive.
func NewArchive() *Archive {
	return &Archive{entries: make(map[string][]Entry)}
}

// Put validates and archives a process description, returning its version.
func (a *Archive) Put(name, creator, comment string, p *workflow.ProcessDescription) (int, error) {
	if name == "" {
		return 0, fmt.Errorf("kb: empty plan name")
	}
	text, err := pdl.FormatProcess(p)
	if err != nil {
		return 0, fmt.Errorf("kb: plan %q does not serialize: %w", name, err)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	version := len(a.entries[name]) + 1
	a.entries[name] = append(a.entries[name], Entry{
		Name: name, Version: version, PDL: text, Creator: creator, Comment: comment,
	})
	return version, nil
}

// Get returns the requested version (0 = latest), parsed back into a
// process description.
func (a *Archive) Get(name string, version int) (*workflow.ProcessDescription, Entry, error) {
	a.mu.Lock()
	revs := a.entries[name]
	a.mu.Unlock()
	if len(revs) == 0 {
		return nil, Entry{}, fmt.Errorf("kb: no plan named %q", name)
	}
	if version == 0 {
		version = len(revs)
	}
	if version < 1 || version > len(revs) {
		return nil, Entry{}, fmt.Errorf("kb: plan %q has no version %d", name, version)
	}
	e := revs[version-1]
	p, err := pdl.ParseProcess(name, e.PDL)
	if err != nil {
		return nil, Entry{}, fmt.Errorf("kb: archived plan %q v%d corrupt: %w", name, version, err)
	}
	return p, e, nil
}

// Versions returns how many revisions of the plan exist.
func (a *Archive) Versions(name string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.entries[name])
}

// Names returns the archived plan names with a prefix, sorted.
func (a *Archive) Names(prefix string) []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	var names []string
	for n := range a.entries {
		if strings.HasPrefix(n, prefix) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// Delete removes a plan and all revisions.
func (a *Archive) Delete(name string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.entries, name)
}
