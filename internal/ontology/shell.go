package ontology

// Class names of the grid ontology shell (Figure 12).
const (
	ClassTask               = "Task"
	ClassProcessDescription = "ProcessDescription"
	ClassCaseDescription    = "CaseDescription"
	ClassActivity           = "Activity"
	ClassTransition         = "Transition"
	ClassData               = "Data"
	ClassService            = "Service"
	ClassResource           = "Resource"
	ClassHardware           = "Hardware"
	ClassSoftware           = "Software"
)

// GridShell builds the ontology shell of Figure 12: the ten classes (Task,
// ProcessDescription, CaseDescription, Activity, Transition, Data, Service,
// Resource, Hardware, Software) with the slots shown in the figure.
func GridShell() *KB {
	kb := NewKB()

	kb.MustAddClass(&Class{
		Name: ClassHardware,
		Doc:  "Hardware characteristics of a resource.",
		Slots: []Slot{
			{Name: "Type", Kind: KindString},
			{Name: "Speed", Kind: KindNumber},
			{Name: "Size", Kind: KindNumber},
			{Name: "Bandwidth", Kind: KindNumber},
			{Name: "Latency", Kind: KindNumber},
			{Name: "Manufacturer", Kind: KindString},
			{Name: "Model", Kind: KindString},
			{Name: "Comment", Kind: KindString},
		},
	})

	kb.MustAddClass(&Class{
		Name: ClassSoftware,
		Doc:  "A software package installed on a resource.",
		Slots: []Slot{
			{Name: "Name", Kind: KindString, Required: true},
			{Name: "Type", Kind: KindString},
			{Name: "Manufacturer", Kind: KindString},
			{Name: "Version", Kind: KindString},
			{Name: "Distribution", Kind: KindString},
		},
	})

	kb.MustAddClass(&Class{
		Name: ClassResource,
		Doc:  "A computing resource (node, cluster) available on the grid.",
		Slots: []Slot{
			{Name: "Name", Kind: KindString, Required: true},
			{Name: "Type", Kind: KindString},
			{Name: "Location", Kind: KindString},
			{Name: "NumberOfNodes", Kind: KindNumber},
			{Name: "AdministrationDomain", Kind: KindString},
			{Name: "Hardware", Kind: KindRef, RefClass: ClassHardware},
			{Name: "Software", Kind: KindList, RefClass: ClassSoftware},
			{Name: "AccessSet", Kind: KindList},
		},
	})

	kb.MustAddClass(&Class{
		Name: ClassData,
		Doc:  "A data item known to the environment, described by metadata.",
		Slots: []Slot{
			{Name: "Name", Kind: KindString, Required: true},
			{Name: "Location", Kind: KindString},
			{Name: "TimeStamp", Kind: KindString},
			{Name: "Value", Kind: KindNumber},
			{Name: "Category", Kind: KindString},
			{Name: "Format", Kind: KindString},
			{Name: "Owner", Kind: KindString},
			{Name: "Creator", Kind: KindString},
			{Name: "Size", Kind: KindNumber},
			{Name: "CreationDate", Kind: KindString},
			{Name: "Description", Kind: KindString},
			{Name: "LatestModifiedDate", Kind: KindString},
			{Name: "Classification", Kind: KindString},
			{Name: "Type", Kind: KindString},
			{Name: "AccessRight", Kind: KindString},
		},
	})

	kb.MustAddClass(&Class{
		Name: ClassService,
		Doc:  "An end-user computing service registered with the environment.",
		Slots: []Slot{
			{Name: "Name", Kind: KindString, Required: true},
			{Name: "Type", Kind: KindString},
			{Name: "TimeStamp", Kind: KindString},
			{Name: "UserSet", Kind: KindList},
			{Name: "Location", Kind: KindString},
			{Name: "CreationDate", Kind: KindString},
			{Name: "Version", Kind: KindString},
			{Name: "Description", Kind: KindString},
			{Name: "CommandHistory", Kind: KindList},
			{Name: "InputCondition", Kind: KindList},
			{Name: "OutputCondition", Kind: KindList},
			{Name: "InputDataSet", Kind: KindList},
			{Name: "OutputDataSet", Kind: KindList},
			{Name: "InputDataOrder", Kind: KindList},
			{Name: "OutputDataOrder", Kind: KindList},
			{Name: "Cost", Kind: KindNumber},
			{Name: "BaseTime", Kind: KindNumber},
			{Name: "Resource", Kind: KindRef, RefClass: ClassResource},
		},
	})

	kb.MustAddClass(&Class{
		Name: ClassTransition,
		Doc:  "A directed edge between two activities of a process description.",
		Slots: []Slot{
			{Name: "ID", Kind: KindString, Required: true},
			{Name: "SourceActivity", Kind: KindString, Required: true},
			{Name: "DestinationActivity", Kind: KindString, Required: true},
			{Name: "Condition", Kind: KindString},
		},
	})

	kb.MustAddClass(&Class{
		Name: ClassActivity,
		Doc:  "One activity of a process description (end-user or flow control).",
		Slots: []Slot{
			{Name: "ID", Kind: KindString, Required: true},
			{Name: "Name", Kind: KindString},
			{Name: "TaskID", Kind: KindString},
			{Name: "Owner", Kind: KindString},
			{Name: "ServiceName", Kind: KindString},
			{Name: "Type", Kind: KindString, Required: true, Allowed: []string{
				"Begin", "End", "End-user", "Choice", "Fork", "Join", "Merge"}},
			{Name: "ExecutionLocation", Kind: KindString},
			{Name: "InputDataSet", Kind: KindList},
			{Name: "OutputDataSet", Kind: KindList},
			{Name: "InputDataOrder", Kind: KindList},
			{Name: "OutputDataOrder", Kind: KindList},
			{Name: "Status", Kind: KindString},
			{Name: "Constraint", Kind: KindString},
			{Name: "WorkDirectory", Kind: KindString},
			{Name: "DirectPredecessorSet", Kind: KindList},
			{Name: "DirectSuccessorSet", Kind: KindList},
			{Name: "RetryCount", Kind: KindNumber},
			{Name: "DispatchedBy", Kind: KindString},
		},
	})

	kb.MustAddClass(&Class{
		Name: ClassProcessDescription,
		Doc:  "The formal description of a complex problem: activities plus transitions.",
		Slots: []Slot{
			{Name: "ID", Kind: KindString},
			{Name: "Name", Kind: KindString, Required: true},
			{Name: "Location", Kind: KindString},
			{Name: "ActivitySet", Kind: KindList, RefClass: ClassActivity},
			{Name: "TransitionSet", Kind: KindList, RefClass: ClassTransition},
			{Name: "Creator", Kind: KindString},
		},
	})

	kb.MustAddClass(&Class{
		Name: ClassCaseDescription,
		Doc:  "Bindings for one instance of a process: initial data, results, goal.",
		Slots: []Slot{
			{Name: "ID", Kind: KindString},
			{Name: "Name", Kind: KindString, Required: true},
			{Name: "InitialDataSet", Kind: KindList, RefClass: ClassData},
			{Name: "ResultSet", Kind: KindList, RefClass: ClassData},
			{Name: "Constraint", Kind: KindString},
			{Name: "GoalCondition", Kind: KindString},
		},
	})

	kb.MustAddClass(&Class{
		Name: ClassTask,
		Doc:  "A submitted computing task: process description plus case description.",
		Slots: []Slot{
			{Name: "ID", Kind: KindString, Required: true},
			{Name: "Name", Kind: KindString},
			{Name: "Owner", Kind: KindString},
			{Name: "SubmitLocation", Kind: KindString},
			{Name: "Status", Kind: KindString, Allowed: []string{
				"Submitted", "Planning", "Running", "Suspended", "Completed", "Failed"}},
			{Name: "DataSet", Kind: KindList, RefClass: ClassData},
			{Name: "ResultSet", Kind: KindList, RefClass: ClassData},
			{Name: "CaseDescription", Kind: KindRef, RefClass: ClassCaseDescription},
			{Name: "ProcessDescription", Kind: KindRef, RefClass: ClassProcessDescription},
			{Name: "NeedPlanning", Kind: KindBool},
		},
	})

	return kb
}
