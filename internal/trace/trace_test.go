package trace

import (
	"strings"
	"testing"
)

func TestKindStrings(t *testing.T) {
	for k := Arrive; k <= ReplyDelivered; k++ {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "Kind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
	if !strings.HasPrefix(Kind(200).String(), "Kind(") {
		t.Error("unknown kind not flagged")
	}
}
