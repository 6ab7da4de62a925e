package chaos

import (
	"reflect"
	"testing"
)

// FuzzParsePlan: any -chaos spec that parses renders back, through
// Plan.String, to a spec that parses to the same plan.
func FuzzParsePlan(f *testing.F) {
	f.Add("drop-response:path=/api/v1/results:p=0.2,delay:ms=40:p=0.5", uint64(1))
	f.Add("5xx:status=502:start=10:len=5:period=50,refuse,truncate:path=/api/v1/campaigns", uint64(2))
	f.Add("drop-request:p=1", uint64(3))
	f.Add("  ", uint64(4))
	f.Add("refuse:len=10:period=5", uint64(5))
	f.Add("refuse:ms=-5", uint64(6))
	f.Add("5xx:p=NaN", uint64(7))
	f.Add("truncate:status=-2", uint64(8))
	f.Fuzz(func(t *testing.T, spec string, seed uint64) {
		p, err := ParsePlan(spec, seed)
		if err != nil {
			return
		}
		again, err := ParsePlan(p.String(), seed)
		if err != nil {
			t.Fatalf("ParsePlan(%q) = %#v renders as %q, which does not parse: %v", spec, p, p.String(), err)
		}
		if !reflect.DeepEqual(again, p) {
			t.Fatalf("ParsePlan(%q) = %#v renders as %q, which parses to %#v", spec, p, p.String(), again)
		}
	})
}
