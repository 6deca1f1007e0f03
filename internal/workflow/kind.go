// Package workflow defines the process-description and case-description
// model of the paper's Section 2: activities (end-user and flow-control),
// transitions, the system state as a set of data items with metadata
// properties, and end-user service specifications with pre- and
// postconditions.
//
// A ProcessDescription is the formal description of the complex problem the
// user wishes to solve; a CaseDescription provides the bindings for one
// particular instance (initial data, goal conditions, constraints). The
// coordination service enacts the pair; the planning service synthesizes
// ProcessDescriptions from a Catalog of services.
package workflow

import "fmt"

// Kind classifies an activity. The paper defines six flow-control activities
// (Begin, End, Choice, Fork, Join, Merge) plus end-user activities that map
// to computing services hosted in Application Containers.
type Kind int

// Activity kinds.
const (
	KindEndUser Kind = iota
	KindBegin
	KindEnd
	KindChoice
	KindFork
	KindJoin
	KindMerge
)

// String returns the canonical spelling used in the paper's figures.
func (k Kind) String() string {
	switch k {
	case KindEndUser:
		return "End-user"
	case KindBegin:
		return "Begin"
	case KindEnd:
		return "End"
	case KindChoice:
		return "Choice"
	case KindFork:
		return "Fork"
	case KindJoin:
		return "Join"
	case KindMerge:
		return "Merge"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind parses the textual kind names (case-sensitive, as in Figure 13).
func ParseKind(s string) (Kind, error) {
	switch s {
	case "End-user", "EndUser", "end-user":
		return KindEndUser, nil
	case "Begin", "BEGIN":
		return KindBegin, nil
	case "End", "END":
		return KindEnd, nil
	case "Choice", "CHOICE":
		return KindChoice, nil
	case "Fork", "FORK":
		return KindFork, nil
	case "Join", "JOIN":
		return KindJoin, nil
	case "Merge", "MERGE":
		return KindMerge, nil
	}
	return 0, fmt.Errorf("workflow: unknown activity kind %q", s)
}

// minMaxDegree returns the allowed (min,max) in- and out-degree for the kind;
// max of -1 means unbounded.
func (k Kind) minMaxDegree() (inMin, inMax, outMin, outMax int) {
	switch k {
	case KindBegin:
		return 0, 0, 1, 1
	case KindEnd:
		return 1, 1, 0, 0
	case KindEndUser:
		return 1, 1, 1, 1
	case KindChoice, KindFork:
		return 1, 1, 2, -1
	case KindJoin, KindMerge:
		return 2, -1, 1, 1
	}
	return 0, -1, 0, -1
}
