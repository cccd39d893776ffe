package trace

// ReadAheadBlock is the read-ahead's block length, for its tests'
// boundary cases.
const ReadAheadBlock = readAheadBlock
