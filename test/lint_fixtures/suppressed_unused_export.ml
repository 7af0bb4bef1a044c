let reference x = x
