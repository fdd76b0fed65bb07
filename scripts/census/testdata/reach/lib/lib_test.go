package lib

import "testing"

func TestLib(t *testing.T) {
	if OnlyTested() != 2 || Observed() != 3 || Promoted() != 4 {
		t.Fatal("fixture arithmetic")
	}
}
