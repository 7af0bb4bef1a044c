let dead x = x + 1

let tested x = x * 2
