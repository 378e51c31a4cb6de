package fuzzy

import "testing"

func TestRuleValidate(t *testing.T) {
	tests := []struct {
		name    string
		rule    Rule
		wantErr bool
	}{
		{"ok", Rule{If: []Clause{{"a", "b"}}, Then: Clause{"c", "d"}, Weight: 1}, false},
		{"zero weight ok (means default)", Rule{If: []Clause{{"a", "b"}}, Then: Clause{"c", "d"}}, false},
		{"no antecedent", Rule{Then: Clause{"c", "d"}}, true},
		{"empty clause", Rule{If: []Clause{{"", "b"}}, Then: Clause{"c", "d"}}, true},
		{"empty consequent", Rule{If: []Clause{{"a", "b"}}, Then: Clause{"", ""}}, true},
		{"negative weight", Rule{If: []Clause{{"a", "b"}}, Then: Clause{"c", "d"}, Weight: -0.1}, true},
		{"weight above one", Rule{If: []Clause{{"a", "b"}}, Then: Clause{"c", "d"}, Weight: 1.1}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.rule.Validate()
			if gotErr := err != nil; gotErr != tc.wantErr {
				t.Fatalf("Validate() = %v, want error %v", err, tc.wantErr)
			}
		})
	}
}

func TestRuleString(t *testing.T) {
	tests := []struct {
		rule Rule
		want string
	}{
		{
			Rule{If: []Clause{{"S", "Sl"}, {"A", "B1"}, {"D", "N"}}, Then: Clause{"Cv", "Cv3"}},
			"IF S is Sl AND A is B1 AND D is N THEN Cv is Cv3",
		},
		{Rule{If: []Clause{{"x", "hot"}}, Then: Clause{"y", "cold"}, Weight: 1}, "IF x is hot THEN y is cold"},
		{Rule{If: []Clause{{"x", "hot"}}, Then: Clause{"y", "cold"}, Weight: 0.25}, "IF x is hot THEN y is cold [0.25]"},
	}
	for _, tc := range tests {
		if got := tc.rule.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}
