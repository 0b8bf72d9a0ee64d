package mlmodel

// BlockRows is the flat forest kernel's block size: batch sizes around it and
// around its four-row groups take different paths through the kernel.
const BlockRows = blockRows
