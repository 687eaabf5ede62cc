package model

import (
	"reflect"
	"testing"
	"time"
	"unsafe"
)

// TestAccumResetLeavesNothing: Reset writes the accumulator field by field
// (see there), so a field added later and not listed would carry one
// rollout's value into the next. Every field of a dirtied accumulator,
// whatever fields there are, must come out of Reset as on a fresh one.
func TestAccumResetLeavesNothing(t *testing.T) {
	var fresh, used Accum
	v := reflect.ValueOf(&used).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
		switch f.Kind() {
		case reflect.Float64:
			f.SetFloat(7)
		case reflect.Int64:
			f.SetInt(7)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Uint8:
			f.SetUint(7)
		case reflect.Pointer:
			f.Set(reflect.New(f.Type().Elem()))
		default:
			t.Fatalf("field %s is a %v: give it a dirty value here", v.Type().Field(i).Name, f.Kind())
		}
	}
	var steps StepTable
	fresh.Reset(2.5, 0.9, 0.02, 3*time.Second, 20*time.Second, &steps)
	used.Reset(2.5, 0.9, 0.02, 3*time.Second, 20*time.Second, &steps)
	if used != fresh {
		t.Errorf("Reset left a used accumulator at\n%+v\na fresh one at\n%+v", used, fresh)
	}
}
