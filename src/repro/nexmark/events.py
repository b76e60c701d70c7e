"""NEXMark event wire sizes.

Record sizes follow the paper exactly: 206 B new-person, 269 B auction,
32 B bid; every record carries an 8-byte primary key and an 8-byte
creation timestamp (§5.1.2).
"""

PERSON_BYTES = 206
AUCTION_BYTES = 269
BID_BYTES = 32
