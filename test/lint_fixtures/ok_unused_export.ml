let used x = x - 1
