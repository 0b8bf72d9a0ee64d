package mlmodel

// BlockRows is the flat forest kernel's block size: batch sizes around it fill
// a block partly, exactly, or spill into the next one.
const BlockRows = blockRows

// ReferenceLoad is the encoding/json decoder LoadModel replaced
// (reference_test.go).
var ReferenceLoad = referenceLoad
