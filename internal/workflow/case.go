package workflow

import (
	"fmt"
	"math"
)

// CaseDescription provides the information for one particular instance of a
// process the user wishes to perform: the actual initial data, the result
// set expected, extra constraints, and the goal condition (Section 2 and
// Figure 13's CD-3DSD instance).
type CaseDescription struct {
	ID   string
	Name string

	// InitialData are the concrete data items available when enactment
	// starts (D1..D7 in the case study).
	InitialData []*DataItem

	// ResultSet names the data items the user expects to exist at the end
	// ({D12} in the case study).
	ResultSet []string

	// Constraint is a named condition-expression source evaluated where the
	// process description references it (e.g. Cons1 on the Choice activity).
	Constraints map[string]string

	// Goal is the goal condition of the case (drives re-planning).
	Goal Goal

	// Deadline is a soft deadline on the enactment's wall-clock time in
	// simulated seconds (Section 1: "sometimes tasks may have soft
	// deadlines"); 0 means none. The coordinator flags — but does not abort
	// — enactments that overrun it, unless HardDeadline is set.
	Deadline float64

	// Budget caps the total simulated spend (currency units) of the
	// enactment; 0 means unlimited. The scheduler prefers cheaper candidates
	// as spend approaches the budget and the coordinator aborts with a
	// budget_exceeded terminal reason once it would be blown.
	Budget float64

	// HardDeadline upgrades Deadline from a flag-only soft deadline to a
	// scheduling constraint: candidates are scored by ETA against the time
	// remaining and overrunning aborts with a deadline_missed reason.
	HardDeadline bool
}

// NewCase builds an empty case description.
func NewCase(id, name string) *CaseDescription {
	return &CaseDescription{ID: id, Name: name, Constraints: make(map[string]string)}
}

// AddData appends initial data items.
func (c *CaseDescription) AddData(items ...*DataItem) *CaseDescription {
	c.InitialData = append(c.InitialData, items...)
	return c
}

// SetConstraint registers a named constraint expression.
func (c *CaseDescription) SetConstraint(name, cond string) *CaseDescription {
	if c.Constraints == nil {
		c.Constraints = make(map[string]string)
	}
	c.Constraints[name] = cond
	return c
}

// InitialState materializes the initial system state from the case data. The
// state holds the case's own items: no item is written once it is in a State.
func (c *CaseDescription) InitialState() *State { return NewState(c.InitialData...) }

// ValidateConstraints checks the budget/deadline constraint fields alone so
// API layers can map violations to a dedicated error code.
func (c *CaseDescription) ValidateConstraints() error {
	if c.Budget < 0 || math.IsNaN(c.Budget) || math.IsInf(c.Budget, 0) {
		return fmt.Errorf("workflow: case %s has invalid budget %v", c.ID, c.Budget)
	}
	if c.Deadline < 0 || math.IsNaN(c.Deadline) || math.IsInf(c.Deadline, 0) {
		return fmt.Errorf("workflow: case %s has invalid deadline %v", c.ID, c.Deadline)
	}
	if c.HardDeadline && c.Deadline <= 0 {
		return fmt.Errorf("workflow: case %s has a hard deadline but no deadline value", c.ID)
	}
	return nil
}

// Constrained reports whether the case carries any enforced scheduling
// constraint (a budget, or a deadline marked hard).
func (c *CaseDescription) Constrained() bool {
	return c.Budget > 0 || (c.HardDeadline && c.Deadline > 0)
}

// Validate checks internal consistency.
func (c *CaseDescription) Validate() error {
	if c.ID == "" {
		return fmt.Errorf("workflow: case with empty ID")
	}
	if err := c.ValidateConstraints(); err != nil {
		return err
	}
	seen := make(map[string]bool, len(c.InitialData))
	for _, d := range c.InitialData {
		if d.Name == "" {
			return fmt.Errorf("workflow: case %s has data item with empty name", c.ID)
		}
		if seen[d.Name] {
			return fmt.Errorf("workflow: case %s has duplicate data item %q", c.ID, d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}

// Task pairs a process description with a case description, mirroring the
// Task ontology class of Figure 12/13 (T1 "3DSD" in the case study).
type Task struct {
	ID      string
	Name    string
	Owner   string
	Process *ProcessDescription
	Case    *CaseDescription

	// NeedPlanning marks a task submitted without a process description;
	// the coordination service will request one from the planning service.
	NeedPlanning bool
}

// Validate checks the task and its parts.
func (t *Task) Validate() error {
	if t.ID == "" {
		return fmt.Errorf("workflow: task with empty ID")
	}
	if t.Case == nil {
		return fmt.Errorf("workflow: task %s has no case description", t.ID)
	}
	if err := t.Case.Validate(); err != nil {
		return err
	}
	if t.Process == nil {
		if !t.NeedPlanning {
			return fmt.Errorf("workflow: task %s has no process description and NeedPlanning is false", t.ID)
		}
		return nil
	}
	return t.Process.Validate()
}
